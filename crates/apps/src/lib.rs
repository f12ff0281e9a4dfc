//! The SDN application suite, mirroring the paper's Table 2 survey plus the
//! three FloodLight-bundled apps its prototype hosted (§4.1), and the fault
//! injector that reproduces the paper's bug classes.
//!
//! | App | Paper analogue | Purpose |
//! |---|---|---|
//! | [`LearningSwitch`] | FloodLight LearningSwitch | L2 reactive forwarding |
//! | [`Hub`] | FloodLight Hub | flood everything |
//! | [`Flooder`] | FloodLight Flooder | proactive flood rules |
//! | [`ShortestPathRouter`] | RouteFlow | routing |
//! | [`LoadBalancer`] | FlowScale | traffic engineering |
//! | [`Firewall`] | BigTap | security |
//! | [`StatsMonitor`] | counter-store clients | monitoring |
//! | [`SpanningTree`] | (loop-free flooding) | broadcast containment |
//! | [`FaultyApp`] | FlowScale's catastrophic bugs | fault injection |

#![forbid(unsafe_code)]

pub mod faults;
pub mod firewall;
pub mod flooder;
pub mod hub;
pub mod learning_switch;
pub mod load_balancer;
pub mod router;
pub mod spanning_tree;
pub mod stats_monitor;
pub mod util;

pub use faults::{BugEffect, BugTrigger, FaultyApp};
pub use firewall::{AclRule, Firewall, Verdict};
pub use flooder::Flooder;
pub use hub::Hub;
pub use learning_switch::LearningSwitch;
pub use load_balancer::{Backend, LoadBalancer};
pub use router::ShortestPathRouter;
pub use spanning_tree::SpanningTree;
pub use stats_monitor::{Sample, StatsMonitor};
