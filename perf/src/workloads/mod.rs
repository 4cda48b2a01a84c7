//! The four pinned workloads.

pub mod dcp_gossip;
mod dcp_probes;
pub mod paper_figures;
mod traffic_common;
pub mod traffic_dense_terminals;
pub mod traffic_megashell;

use crate::harness::{Size, Workload};

/// The workload called `name`, with inputs made from `seed`.
pub fn by_name(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    match name {
        "paper_figures" => Some(Box::new(paper_figures::PaperFigures::new(seed, size))),
        "traffic_megashell" => Some(Box::new(traffic_megashell::TrafficMegashell::new(seed, size))),
        "traffic_dense_terminals" => {
            Some(Box::new(traffic_dense_terminals::TrafficDenseTerminals::new(seed, size)))
        }
        "dcp_gossip" => Some(Box::new(dcp_gossip::DcpGossip::new(seed, size))),
        _ => None,
    }
}
