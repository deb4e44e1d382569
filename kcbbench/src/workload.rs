//! The two workloads, and why each is in the benchmark.
//!
//! `repro-all` is the paper's full grid: every trained provider is read,
//! `kcb-lm` fine-tunes, prompts BioGPT and pretrains, each of the 17
//! assemblies rewrites the whole `derived` checkpoint, the sweep is all LM
//! work, BERT forward is one of the serving kernels, and telemetry scrapes
//! run beside request-path writes.
//!
//! `supervised-slice` is the supervised paradigm alone: embedding trainers
//! and forests do the work, the sweep is forest cells, and serving has no
//! BERT, so its latency is protocol, socket and hand-off overhead. An LM
//! change should leave its `sweep_s` and serve metrics unmoved, and a
//! forest change should leave `repro-all`'s `sweep_s` unmoved.

/// One workload: what the user runs at each step of the lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Artifact ids of the cold reproduction and the warm reruns.
    pub ids: &'static [&'static str],
    /// Sweep grid after its `seeds=` entry.
    grid_rest: &'static str,
    /// Seeds in the sweep grid, counted up from the workload seed; sized
    /// so one sweep runs for a few seconds on a 2-vCPU host.
    sweep_seeds: u64,
    /// Keep the `client_workload` mix's BERT requests; without it each is
    /// sent as `classify` on the same triple.
    pub bert: bool,
    /// Open-loop offered rate, req/s: a constant, never derived at run
    /// time. On a 2-vCPU host with one engine worker the closed loop
    /// reaches 17k (repro-all) and 24k (supervised-slice) req/s; at half
    /// that the one-connection p50 swung by ±23% between repetitions, at
    /// 2,000 req/s by ±7%.
    pub open_rate: f64,
    /// Pipeline windows the first closed-loop client sends between two
    /// `GET /metrics` scrapes; `None` for no scrapes.
    pub scrape_every: Option<usize>,
}

/// Every workload, in the order `--workload` documents them.
pub const ALL: [Workload; 2] = [
    Workload {
        name: "repro-all",
        ids: &["all"],
        grid_rest: "scenarios=0,1,2,3,4;paradigms=ft,icl;oracles=gpt4,biogpt",
        sweep_seeds: 1,
        bert: true,
        open_rate: 2000.0,
        scrape_every: Some(32),
    },
    Workload {
        name: "supervised-slice",
        ids: &["fig2", "tablea6", "tablea7"],
        grid_rest: "scenarios=0,1,2,3,4;paradigms=sup",
        sweep_seeds: 3,
        bert: false,
        open_rate: 2000.0,
        scrape_every: None,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// The `repro sweep --grid` spec for workload seed `seed`.
    pub fn grid(&self, seed: u64) -> String {
        let seeds: Vec<String> = (0..self.sweep_seeds)
            .map(|i| (seed + i).to_string())
            .collect();
        format!("seeds={};{}", seeds.join(","), self.grid_rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_parse_and_follow_the_seed() {
        for w in ALL {
            let g = w.grid(11);
            assert!(g.starts_with("seeds=11"), "{g}");
            kcb_core::experiment::sweep::GridSpec::parse(&g).expect("valid grid");
        }
        assert_eq!(Workload::by_name("repro-all").expect("known").ids, &["all"]);
        assert!(Workload::by_name("nope").is_none());
    }
}
