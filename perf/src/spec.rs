//! The benchmark's definition: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is this module printed
//! (`perf spec`), and every metric a run reports is looked up here, so file
//! and code cannot drift (`tests/smoke.rs` compares the two).

use serde::{Deserialize, Serialize};

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 30;

/// Fewest timed repetitions a run may report on.
pub const MIN_REPS: usize = 10;

/// The command that runs one workload, from the root of a checkout.
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "--quiet", "--manifest-path", "perf/Cargo.toml", "--"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why)` of the four workloads.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_figures",
        "The paper's own evaluation path (fig2-6 + two ablations over the ~4.2k-sat pool): orbital, leosim and mpleo only, so a routing or protocol change must not move it.",
    ),
    (
        "traffic_megashell",
        "A churn campaign over the full Gen1 pool with 4 ISL hops: the step kernel at mega-constellation scale, where ISL-BFS is the cost and allocation is noise.",
    ),
    (
        "traffic_dense_terminals",
        "The same kernel and engine with the load inverted: bent pipe, 2100 terminals, 21 parties, contended satellites, so uplink search and max-min filling dominate.",
    ),
    (
        "dcp_gossip",
        "The only workload that runs dcp: 8 nodes on a lossy seeded SimNet under virtual time, a standing set plus an open-loop item schedule and a partition.",
    ),
];

/// `(name, unit, better, bound)` of the end-to-end metrics.
pub const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("rtf", "sim_s/s", Higher, 0.25),
    ("peak_rss_mib", "MiB", Lower, 0.15),
    ("setup_s", "s", Lower, 0.25),
];

/// `(name, unit, better)` of the per-layer metrics, grouped by layer.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // orbital
    ("orbital.sgp4_ns_per_state", "ns", Lower),
    ("orbital.keplerj2_ns_per_state", "ns", Lower),
    ("orbital.pool_synth_ms", "ms", Lower),
    // leosim
    ("leosim.ephemeris_build_s", "s", Lower),
    ("leosim.ephemeris_mstates_per_s", "Mstates/s", Higher),
    ("leosim.ephemeris_mib", "MiB", Lower),
    ("leosim.visibility_build_s", "s", Lower),
    ("leosim.visibility_mpred_per_s", "Mpred/s", Higher),
    ("leosim.coverage_union_us", "us", Lower),
    ("leosim.isl_connectivity_s", "s", Lower),
    ("leosim.positions_gather_us", "us", Lower),
    // mpleo
    ("mpleo.withdrawal_s", "s", Lower),
    ("mpleo.placement_s", "s", Lower),
    ("mpleo.failures_s", "s", Lower),
    // bench
    ("bench.fig2_s", "s", Lower),
    ("bench.fig3_s", "s", Lower),
    ("bench.fig4a_s", "s", Lower),
    ("bench.fig4b_s", "s", Lower),
    ("bench.fig4c_s", "s", Lower),
    ("bench.fig5_s", "s", Lower),
    ("bench.fig6_s", "s", Lower),
    ("bench.ablation_isl_s", "s", Lower),
    ("bench.ablation_failures_s", "s", Lower),
    // traffic
    ("traffic.demand_generate_ms", "ms", Lower),
    ("traffic.grid_rebuild_us", "us", Lower),
    ("traffic.kernel_routes_us", "us", Lower),
    ("traffic.kernel_routes_us_p99", "us", Lower),
    ("traffic.kernel_routes_masked_us", "us", Lower),
    ("traffic.kernel_downlink_us", "us", Lower),
    ("traffic.kernel_bfs_us", "us", Lower),
    ("traffic.kernel_uplink_us", "us", Lower),
    ("traffic.kernel_routes_cold_us", "us", Lower),
    ("traffic.kernel_vs_reference", "ratio", Higher),
    ("traffic.route_table_build_s", "s", Lower),
    ("traffic.route_table_mib", "MiB", Lower),
    ("traffic.allocate_us", "us", Lower),
    ("traffic.allocate_us_p99", "us", Lower),
    ("traffic.engine_s", "s", Lower),
    ("traffic.campaign_s", "s", Lower),
    ("traffic.market_ms", "ms", Lower),
    ("traffic.masked_steps", "count", Lower),
    ("traffic.reroutes", "count", Lower),
    ("traffic.orders", "count", Higher),
    ("traffic.trades", "count", Higher),
    ("traffic.routability", "ratio", Higher),
    ("traffic.served_ratio", "ratio", Higher),
    // simrt
    ("simrt.speedup_2t.route_table", "ratio", Higher),
    ("simrt.speedup_2t.ephemeris", "ratio", Higher),
    ("simrt.busy_s", "s", Lower),
    ("simrt.queue_wait_s", "s", Lower),
    ("simrt.tasks", "count", Lower),
    ("simrt.dispatch_us", "us", Lower),
    // the run itself
    ("run.rtf_1t", "sim_s/s", Higher),
    // dcp
    ("dcp.sha256_mib_s", "MiB/s", Higher),
    ("dcp.sign_us", "us", Lower),
    ("dcp.verify_order_us", "us", Lower),
    ("dcp.poc_verify_us", "us", Lower),
    ("dcp.encode_us", "us", Lower),
    ("dcp.decode_us", "us", Lower),
    ("dcp.frame_bytes", "bytes", Lower),
    ("dcp.announce_bytes_at_2000", "bytes", Lower),
    ("dcp.announce_encode_us_at_2000", "us", Lower),
    ("dcp.gossip_on_announce_us_at_2000", "us", Lower),
    ("dcp.gossip_insert_us", "us", Lower),
    ("dcp.ledger_receipt_us", "us", Lower),
    ("dcp.ledger_attest_us", "us", Lower),
    ("dcp.ledger_settlement_us", "us", Lower),
    ("dcp.ledger_digest_us", "us", Lower),
    ("dcp.book_submit_us", "us", Lower),
    ("dcp.frames_delivered", "count", Lower),
    ("dcp.frames_dropped", "count", Lower),
    ("dcp.frames_per_item", "ratio", Lower),
    ("dcp.announce_frame_share", "ratio", Lower),
    ("dcp.payload_frame_share", "ratio", Higher),
    ("dcp.rejected_items", "count", Lower),
    ("dcp.converge_virtual_ms_p50", "virtual_ms", Lower),
    ("dcp.converge_virtual_ms_p99", "virtual_ms", Lower),
    ("dcp.node_start_ms", "ms", Lower),
    ("dcp.single_node_us_per_item", "us", Lower),
    // scenario
    ("scenario.generate_us", "us", Lower),
    ("scenario.corpus_check_ms", "ms", Lower),
    ("scenario.check_ms_p50", "ms", Lower),
    ("scenario.violations", "count", Lower),
    // the trace itself
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.coverage_frac", "ratio", Higher),
];

/// The unit of a metric, end-to-end or per-layer; `None` for a name the
/// benchmark does not define.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// One workload entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadEntry {
    /// Workload name.
    pub name: String,
    /// Why it is in the benchmark.
    pub why: String,
}

/// One end-to-end metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// One per-layer metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayerEntry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
}

/// `BENCHMARK.json`, key for key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkFile {
    /// Program and arguments.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadEntry>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<EndToEndEntry>,
    /// Metrics of single layers.
    pub per_layer: Vec<PerLayerEntry>,
}

/// The benchmark definition as the value `BENCHMARK.json` holds.
pub fn benchmark_file() -> BenchmarkFile {
    BenchmarkFile {
        command: COMMAND.iter().map(|s| s.to_string()).collect(),
        paths: vec!["perf".to_string()],
        run_seconds: RUN_SECONDS,
        workloads: WORKLOADS
            .iter()
            .map(|&(name, why)| WorkloadEntry { name: name.into(), why: why.into() })
            .collect(),
        end_to_end: END_TO_END
            .iter()
            .map(|&(name, unit, better, bound)| EndToEndEntry {
                name: name.into(),
                unit: unit.into(),
                better: better.as_str().into(),
                bound,
            })
            .collect(),
        per_layer: PER_LAYER
            .iter()
            .map(|&(name, unit, better)| PerLayerEntry {
                name: name.into(),
                unit: unit.into(),
                better: better.as_str().into(),
            })
            .collect(),
    }
}

/// `BENCHMARK.json` as text.
pub fn benchmark_json() -> String {
    let mut text = serde_json::to_string_pretty(&benchmark_file()).expect("spec serialises");
    text.push('\n');
    text
}
