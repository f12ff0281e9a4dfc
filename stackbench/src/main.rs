//! stackbench: a CPU-bound, full-stack, layer-attributed benchmark for
//! the LegoSDN controller. See README.md in this directory.
//!
//! Two ways in. With `--workload` it is one measured run for the
//! benchmark driver, ending in one JSON line. Without, it is the whole
//! benchmark: every workload's end-to-end metrics (tracing off), then the
//! traced phase with every per-layer metric, as tables, with a non-zero
//! exit if any output check failed.

mod alloc;
mod driver;
mod metrics;
mod probes;
mod run;
mod spans;
mod staged;
mod stats;
mod trace_gen;
mod workloads;

use metrics::{result_line, Better, END_TO_END, PER_LAYER};
use run::{Budget, Stat, Verdict};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "\
stackbench [--workload NAME --trace 0|1] [--seed N] [--seconds S | --repeats R]
           [--sets N] [--traced] [--smoke] [--trace-out DIR]

  --workload NAME  one measured run of NAME; the last line of standard
                   output is a JSON object with the metrics
  --trace 0|1      with --workload: 0 end-to-end metrics (default),
                   1 the traced phase and the per-layer metrics
  --seed N         seed of the trace generators (default 7)
  --seconds S      measure each workload for S seconds (default 20)
  --repeats R      measure each workload for R rounds instead
  --sets N         repeat the end-to-end phase N times and fail if two
                   sets disagree by more than a metric's bound
  --traced         only the traced phase
  --smoke          small topology, one round each: checks, not numbers
  --trace-out DIR  where the traced phase writes its spans
                   (default $CARGO_TARGET_DIR/stackbench-trace)
";

struct Args {
    workload: Option<&'static Workload>,
    trace: bool,
    seed: u64,
    budget: Budget,
    sets: usize,
    end_to_end: bool,
    scale: Scale,
    trace_out: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a number"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut args = Args {
        workload: None,
        trace: false,
        seed: 7,
        budget: Budget::Seconds(20.0),
        sets: 1,
        end_to_end: true,
        scale: Scale::full(),
        trace_out: PathBuf::from(target).join("stackbench-trace"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => args.seed = number(flag, value()?)?,
            "--seconds" => {
                let s: f64 = number(flag, value()?)?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.budget = Budget::Seconds(s);
            }
            "--repeats" => args.budget = Budget::Rounds(number::<usize>(flag, value()?)?.max(1)),
            "--sets" => args.sets = number::<usize>(flag, value()?)?.max(1),
            "--traced" => args.end_to_end = false,
            "--smoke" => {
                args.scale = Scale::smoke();
                args.budget = Budget::Rounds(1);
            }
            "--trace-out" => args.trace_out = PathBuf::from(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `crash_flap` contains thousands of app panics; printing each would put
/// stderr on the clock. Panics from anywhere but the fault injector still
/// print.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .location()
            .is_some_and(|l| l.file().ends_with("faults.rs"));
        if !injected {
            default(info);
        }
    }));
}

fn report_errors(verdict: &Verdict) {
    for e in &verdict.errors {
        eprintln!("CHECK FAILED: {e}");
    }
}

fn write_spans(args: &Args, w: &Workload, spans: &[spans::Span]) {
    let path = args.trace_out.join(format!("{}.spans.jsonl", w.name));
    match spans::write_jsonl(&path, spans) {
        Ok(()) => eprintln!(
            "{}: first {} of {} spans written to {}",
            w.name,
            spans.len().min(spans::FILE_CAP),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{}: could not write {}: {e}", w.name, path.display()),
    }
}

/// One run for the benchmark driver: the result is the last line of
/// standard output; a failed check is in it, not in the exit code.
fn driver_run(w: &'static Workload, args: &Args) {
    let (verdict, metrics): (Verdict, Vec<_>) = if args.trace {
        let (values, verdict, spans) = run::trace(w, args.scale, args.seed, args.budget);
        write_spans(args, w, &spans);
        let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit, values[m.name]));
        (verdict, per_layer.collect())
    } else {
        let (rounds, verdict) = run::measure(&[w], args.scale, args.seed, args.budget)
            .pop()
            .expect("one workload in, one result out");
        let e2e = run::end_to_end(&rounds);
        eprintln!(
            "{}: {} rounds, {} bursts behind the percentiles",
            w.name,
            rounds.len(),
            e2e["burst_p90_us"].samples
        );
        let end_to_end = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, e2e[m.name].value));
        (verdict, end_to_end.collect())
    };
    report_errors(&verdict);
    println!(
        "{}",
        result_line(
            verdict.correct(),
            verdict.attempted,
            verdict.failed_ops(),
            metrics.into_iter()
        )
    );
}

fn print_end_to_end(w: &Workload, e2e: &BTreeMap<&'static str, Stat>, verdict: &Verdict) {
    println!("\n{} — {}", w.name, w.why);
    println!(
        "  {:<20} {:>14} {:>14} {:>14} {:>7}  {:<6} bound",
        "metric", "value", "q1", "q3", "n", "unit"
    );
    for m in &END_TO_END {
        let s = e2e[m.name];
        let (q1, q3) = match s.quartiles {
            Some((a, b)) => (format!("{a:.4}"), format!("{b:.4}")),
            None => ("-".into(), "-".into()),
        };
        let sign = if m.better == Better::Higher { '-' } else { '+' };
        println!(
            "  {:<20} {:>14.4} {:>14} {:>14} {:>7}  {:<6} {sign}{:.0}%",
            m.name,
            s.value,
            q1,
            q3,
            s.samples,
            m.unit,
            m.bound * 100.0
        );
    }
    let p90 = e2e["burst_p90_us"];
    println!(
        "  {:<20} {:>14.4} {:>14} {:>14} {:>7}  {:<6} not gated: too jumpy on this host",
        "burst_p90_us", p90.value, "-", "-", p90.samples, "us"
    );
    let host = e2e["host_slowdown"];
    let (q1, q3) = host.quartiles.unwrap_or((host.value, host.value));
    println!(
        "  {:<20} {:>14.4} {:>14.4} {:>14.4} {:>7}  {:<6} not a metric: times above are divided by it",
        "host_slowdown", host.value, q1, q3, host.samples, "ratio"
    );
    println!(
        "  {:<20} {:>14.4} {:>14} {:>14} {:>7}  {:<6} any increase",
        "failed_ops_share",
        verdict.failed_ops() as f64 / verdict.attempted.max(1) as f64,
        "-",
        "-",
        verdict.attempted,
        "ratio"
    );
}

/// Disagreements between sets beyond a metric's bound, as text.
fn set_disagreements(sets: &[Vec<BTreeMap<&'static str, Stat>>], all: &[&Workload]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, w) in all.iter().enumerate() {
        for m in &END_TO_END {
            let values = sets.iter().map(|set| set[i][m.name].value);
            let lo = values.clone().fold(f64::INFINITY, f64::min);
            let hi = values.fold(f64::NEG_INFINITY, f64::max);
            if hi > lo * (1.0 + m.bound) {
                out.push(format!(
                    "{} {}: sets range {lo:.4}..{hi:.4} {}, more than {:.0}% apart",
                    w.name,
                    m.name,
                    m.unit,
                    m.bound * 100.0
                ));
            }
        }
    }
    out
}

/// End-to-end tables for `sets` sets. Returns whether every check held
/// and, with more than one set, whether the sets agree.
fn end_to_end_phase(args: &Args, all: &[&Workload]) -> bool {
    let mut ok = true;
    let mut sets = Vec::new();
    for set in 1..=args.sets {
        println!(
            "\n== end to end, tracing off: set {set} of {} ==",
            args.sets
        );
        let measured = run::measure(all, args.scale, args.seed, args.budget);
        let mut tables = Vec::new();
        for (w, (rounds, verdict)) in all.iter().zip(&measured) {
            let e2e = run::end_to_end(rounds);
            print_end_to_end(w, &e2e, verdict);
            report_errors(verdict);
            ok &= verdict.correct();
            tables.push(e2e);
        }
        sets.push(tables);
    }
    if args.sets > 1 {
        let apart = set_disagreements(&sets, all);
        for line in &apart {
            eprintln!("SETS DISAGREE: {line}");
        }
        println!(
            "\n{} sets: {} of {} metric x workload pairs disagree beyond their bound",
            args.sets,
            apart.len(),
            END_TO_END.len() * all.len()
        );
        ok &= apart.is_empty();
    }
    ok
}

/// The per-layer table. Returns whether every check held.
fn traced_phase(args: &Args, all: &[&Workload]) -> bool {
    println!("\n== traced phase: per-layer metrics ==");
    let mut ok = true;
    let mut columns = Vec::new();
    for w in all {
        let (values, verdict, spans) = run::trace(w, args.scale, args.seed, args.budget);
        write_spans(args, w, &spans);
        report_errors(&verdict);
        ok &= verdict.correct();
        columns.push(values);
    }
    print!("\n  {:<38} {:<6} {:<6}", "metric", "unit", "better");
    for w in all {
        print!(" {:>17}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("  {:<38} {:<6} {:<6}", m.name, m.unit, m.better.as_str());
        for values in &columns {
            print!(" {:>17.2}", values[m.name]);
        }
        println!();
    }
    ok
}

/// The whole benchmark. Returns whether every check held.
fn full_run(args: &Args) -> bool {
    let all: Vec<&Workload> = WORKLOADS.iter().collect();
    println!(
        "stackbench: seed {}, fat_tree({}), {} cores",
        args.seed,
        args.scale.k,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut ok = !args.end_to_end || end_to_end_phase(args, &all);
    ok &= traced_phase(args, &all);
    println!(
        "\n{}",
        if ok {
            "all output checks held"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("stackbench: {e}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    match args.workload {
        Some(w) => {
            driver_run(w, &args);
            ExitCode::SUCCESS
        }
        None if full_run(&args) => ExitCode::SUCCESS,
        None => ExitCode::FAILURE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's output check, the traced phase and every metric
    /// name, on a small topology.
    #[test]
    fn smoke_runs_every_workload_and_check() {
        quiet_injected_panics();
        let dir = std::env::temp_dir().join(format!("stackbench-smoke-{}", std::process::id()));
        let argv: Vec<String> = ["--smoke", "--trace-out", dir.to_str().unwrap()]
            .map(String::from)
            .to_vec();
        let args = parse_args(&argv).unwrap();
        assert!(full_run(&args), "an output check failed");
        for w in &WORKLOADS {
            let spans = dir.join(format!("{}.spans.jsonl", w.name));
            assert!(std::fs::metadata(&spans).unwrap().len() > 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        let a = parse("--workload lean_mice --seed 11 --seconds 2 --trace 1").unwrap();
        assert_eq!(a.workload.unwrap().name, "lean_mice");
        assert!(a.trace && a.seed == 11);
        assert!(matches!(a.budget, Budget::Seconds(s) if s == 2.0));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--bogus").is_err());
    }
}
