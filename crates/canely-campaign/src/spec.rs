//! Campaign specifications and their expansion into run matrices.
//!
//! A `.campaign` document is line-based (`keyword args…`, `#` starts a
//! comment), mirroring the `.canely` scenario syntax one level up:
//! instead of one concrete fault schedule it declares *dimensions*
//! (node counts, cycle periods, error rates, crash budgets,
//! inaccessibility window lengths, a seed range) whose Cartesian
//! product [`CampaignSpec::expand`]s into concrete [`RunSpec`]s.
//!
//! ```text
//! name smoke
//! nodes 4 6            # matrix: population sizes
//! tm 30ms              # matrix: membership cycle periods
//! th 5ms
//! seeds 0..8           # one run per seed per combination
//! error-rate 0 0.02    # matrix: consistent omission probability
//! inconsistent-rate 0 0.005
//! crash-budget 0 2     # matrix: f crashed nodes per run
//! inaccessibility 0 2ms  # matrix: blackout window length (0 = none)
//! until 300ms
//! settle 150ms
//! detector surveillance swim add-phi  # matrix: failure-detector backends
//! ```
//!
//! Expansion is **deterministic**: the crash instants, crash victims
//! and window placement of a run are derived purely from the run's
//! seed and dimension values through a splitmix64-style key, so the
//! same spec always yields byte-identical run schedules — on any
//! machine, with any worker count.

use crate::grammar::{
    self, bridge, detector, federated_population, gateway_in_segment, kw, node_count, number,
    parse_duration, probability, relay, segment_count, traffic_period, Doc, Keyword,
};
use can_bus::FaultPlan;
use can_types::{mix64, BitTime, NodeSet, GOLDEN};
use canely::{CanelyConfig, DetectorKind, RHA_TIMEOUT, TX_DELAY_BOUND};
use canely_analysis::ProtocolBounds;
use canely_federation::{BridgeKind, RelayFilter, DIGEST_PERIOD, QUANTUM};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

/// One federated fault combo of the expansion matrix: `(segments,
/// gateway-crash budget, restart delay, partition len, asymmetric
/// len)`.
type FedCombo = (u8, u32, BitTime, BitTime, BitTime);

/// The per-segment fault-plan seed of a federated run: segment 0 uses
/// the run seed verbatim (so the 1-segment degenerate case replays the
/// plain run bit-for-bit), the rest get decorrelated derived streams.
pub(crate) fn segment_seed(seed: u64, seg: u8) -> u64 {
    if seg == 0 {
        seed
    } else {
        mix64(seed ^ GOLDEN ^ (u64::from(seg) << 32))
    }
}

/// When a population booted at `t = 0` with `join_wait = 2·Tm + 10 ms`
/// is fully operational: views bootstrapped, every surveillance timer
/// armed. Faults scheduled before this instant probe the boot sequence
/// rather than the failure-detection protocol.
fn operational_from(tm: BitTime) -> BitTime {
    tm * 2 + BitTime::new(20_000)
}

/// The oracle's horizon rule, for campaigns and judged scenarios
/// alike: the end-of-run view checks need a settle margin that ends
/// before the horizon.
pub(crate) fn settled_horizon(until: BitTime, settle: BitTime) -> Result<(), &'static str> {
    if until <= settle {
        return Err("horizon (until) must exceed the settle margin");
    }
    Ok(())
}

/// A declarative fault-injection campaign: the matrix dimensions and
/// the per-run constants.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (reported in summaries).
    pub name: String,
    /// Matrix: population sizes.
    pub nodes: Vec<u8>,
    /// Matrix: membership cycle periods (`Tm`).
    pub tm: Vec<BitTime>,
    /// Heartbeat period (`Th`).
    pub th: BitTime,
    /// Seed range `[start, end)`: one run per seed per combination.
    pub seeds: (u64, u64),
    /// Matrix: consistent omission probabilities.
    pub consistent_rates: Vec<f64>,
    /// Matrix: inconsistent omission probabilities (LCAN4 faults).
    pub inconsistent_rates: Vec<f64>,
    /// Matrix: crash budgets (`f` crashed nodes per run).
    pub crash_budgets: Vec<u32>,
    /// Matrix: inaccessibility window lengths (`BitTime::ZERO` = no
    /// window).
    pub inaccessibility_lens: Vec<BitTime>,
    /// Omission degree bound `k` (MCAN3) for the stochastic injector.
    pub omission_degree: u32,
    /// Inconsistent omission degree bound `j` (LCAN4).
    pub inconsistent_degree: u32,
    /// Cyclic application traffic period on every node (implicit
    /// heartbeats); `None` = silent population, ELS only.
    pub traffic: Option<BitTime>,
    /// Run horizon.
    pub until: BitTime,
    /// Quiescence margin: no scheduled disturbance may land within
    /// `settle` of the horizon, so end-of-run view checks observe a
    /// stable system. Must comfortably exceed the view-change bound.
    pub settle: BitTime,
    /// Oracle slack added to the analytical latency bounds (absorbs
    /// per-observer timer skew, arbitration queuing and retry
    /// ladders).
    pub latency_slack: BitTime,
    /// Run every simulation against the deliberately broken
    /// failure-detection mutant (see `CanelyConfig::weakened_fda`).
    pub weaken_fda: bool,
    /// Matrix: failure-detector backends. Every backend faces the
    /// **same** fault schedules — the detector is deliberately kept
    /// out of the schedule key — so multi-backend campaigns are fair
    /// head-to-head shootouts (see `docs/DETECTORS.md`).
    pub detectors: Vec<DetectorKind>,
    /// Matrix: segment counts (`1` = the plain single-bus stack; `> 1`
    /// federates that many bridged segments of `nodes` each).
    pub segments: Vec<u8>,
    /// Local node id of each segment's gateway (federated combos).
    pub gateway: u8,
    /// Bridge topology of federated combos.
    pub bridge: BridgeKind,
    /// Which application frames gateways relay across bridges.
    pub relay: RelayFilter,
    /// Matrix: gateway-crash budgets (federated combos only) — how
    /// many segment representatives fail-silently per run.
    pub gateway_crash_budgets: Vec<u32>,
    /// Matrix: inter-segment partition window lengths (`ZERO` = none);
    /// a partition blocks every bridge in both directions.
    pub partition_lens: Vec<BitTime>,
    /// Matrix: asymmetric inaccessibility window lengths (`ZERO` =
    /// none); blocks one direction of one bridge — the federation
    /// analogue of an LCAN4 inconsistent channel.
    pub asymmetric_lens: Vec<BitTime>,
    /// Matrix: gateway restart delays (`ZERO` = crashed gateways stay
    /// down). A non-zero delay power-cycles every crashed gateway that
    /// long after its crash — as a fresh *standby* under the elected
    /// successor. Combos with a zero gateway-crash budget collapse to
    /// the single zero-delay value (a restart without a crash is a
    /// no-op, so expanding the product there would only duplicate
    /// runs).
    pub gateway_restart_delays: Vec<BitTime>,
    /// Oracle slack on the analytic rejoin bound (absorbs bridge pump
    /// quantisation, retry backoff rungs and digest arbitration
    /// queuing).
    pub rejoin_slack: BitTime,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            nodes: vec![4],
            tm: vec![BitTime::new(30_000)],
            th: BitTime::new(5_000),
            seeds: (0, 1),
            consistent_rates: vec![0.0],
            inconsistent_rates: vec![0.0],
            crash_budgets: vec![0],
            inaccessibility_lens: vec![BitTime::ZERO],
            omission_degree: 16,
            inconsistent_degree: 2,
            traffic: Some(BitTime::new(2_000)),
            until: BitTime::new(300_000),
            settle: BitTime::new(150_000),
            latency_slack: BitTime::new(4_000),
            weaken_fda: false,
            detectors: vec![DetectorKind::Surveillance],
            segments: vec![1],
            gateway: 0,
            bridge: BridgeKind::Ring,
            relay: RelayFilter::None,
            gateway_crash_budgets: vec![0],
            partition_lens: vec![BitTime::ZERO],
            asymmetric_lens: vec![BitTime::ZERO],
            gateway_restart_delays: vec![BitTime::ZERO],
            rejoin_slack: BitTime::new(30_000),
        }
    }
}

/// The most runs a matrix may expand into: what the eager
/// `Vec<RunSpec>` of [`CampaignSpec::expand`] should hold at once.
pub const MAX_RUNS: usize = 1 << 20;

/// The smallest population the oracle judges (agreement needs a peer).
pub(crate) const MIN_JUDGED_NODES: u8 = 2;

fn seed_range(word: &str) -> Result<(u64, u64), String> {
    let (start, end) = word
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .ok_or_else(|| format!("expected `start..end`, got `{word}`"))?;
    if end <= start {
        return Err(format!("empty seed range `{word}`"));
    }
    Ok((start, end))
}

/// The `.campaign` dialect: every keyword, its argument shape, and how
/// it lands in the spec. `docs/CAMPAIGN_SPEC.md` is gated against this
/// table.
#[rustfmt::skip] // one keyword per line
pub const KEYWORDS: &[Keyword<CampaignSpec>] = &[
    kw("name", "WORD…", |s, l| {
        let mut words = Vec::new();
        l.each(&mut words, |w| Ok(w.to_string()))?;
        s.name = words.join("-");
        Ok(())
    }),
    kw("nodes", "N…", |s, l| l.each(&mut s.nodes, |w| node_count(w, MIN_JUDGED_NODES))),
    kw("tm", "DUR…", |s, l| l.each(&mut s.tm, parse_duration)),
    kw("th", "DUR", |s, l| l.one(&mut s.th, parse_duration)),
    kw("seeds", "A..B", |s, l| l.one(&mut s.seeds, seed_range)),
    kw("error-rate", "P…", |s, l| l.each(&mut s.consistent_rates, probability)),
    kw("inconsistent-rate", "P…", |s, l| l.each(&mut s.inconsistent_rates, probability)),
    kw("crash-budget", "F…", |s, l| l.each(&mut s.crash_budgets, number)),
    kw("inaccessibility", "DUR…", |s, l| l.each(&mut s.inaccessibility_lens, parse_duration)),
    kw("detector", "KEY…", |s, l| l.each(&mut s.detectors, detector)),
    kw("omission-degree", "K", |s, l| l.one(&mut s.omission_degree, number)),
    kw("inconsistent-degree", "J", |s, l| l.one(&mut s.inconsistent_degree, number)),
    kw("traffic", "DUR|none", |s, l| {
        l.one(&mut s.traffic, |w| if w == "none" { Ok(None) } else { traffic_period(w).map(Some) })
    }),
    kw("until", "DUR", |s, l| l.one(&mut s.until, parse_duration)),
    kw("settle", "DUR", |s, l| l.one(&mut s.settle, parse_duration)),
    kw("latency-slack", "DUR", |s, l| l.one(&mut s.latency_slack, parse_duration)),
    kw("weaken-fda", "", |s, _| { s.weaken_fda = true; Ok(()) }),
    kw("segments", "K…", |s, l| l.each(&mut s.segments, segment_count)),
    kw("gateway", "N", |s, l| l.one(&mut s.gateway, number)),
    kw("bridge", "KEY", |s, l| l.one(&mut s.bridge, bridge)),
    kw("relay", "FILTER", |s, l| relay(l).map(|filter| s.relay = filter)),
    kw("gateway-crash", "G…", |s, l| l.each(&mut s.gateway_crash_budgets, number)),
    kw("segment-partition", "DUR…", |s, l| l.each(&mut s.partition_lens, parse_duration)),
    kw("asymmetric-inaccessibility", "DUR…", |s, l| {
        l.each(&mut s.asymmetric_lens, parse_duration)
    }),
    kw("gateway-restart", "DUR…", |s, l| l.each(&mut s.gateway_restart_delays, parse_duration)),
    kw("rejoin-slack", "DUR", |s, l| l.one(&mut s.rejoin_slack, parse_duration)),
];

impl CampaignSpec {
    /// Parses a `.campaign` document read from the named file,
    /// reporting errors as `name:line: message`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the file and offending line.
    pub fn parse_named(name: &str, text: &str) -> Result<CampaignSpec, String> {
        Self::read(&Doc::named(name, text))
    }

    /// Parses a `.campaign` document.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic naming the offending line.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        Self::read(&Doc::new(text))
    }

    fn read(doc: &Doc<'_>) -> Result<CampaignSpec, String> {
        let mut spec = CampaignSpec::default();
        let seen = grammar::read(doc, KEYWORDS, &mut spec)?;
        // The two whole-document checks that can name a line do so
        // here, where the lines are still known; `validate` repeats
        // them line-less for specs built in code.
        if spec.segments.iter().any(|&k| k > 1) {
            for &n in &spec.nodes {
                gateway_in_segment(spec.gateway, n)
                    .map_err(|msg| doc.at(seen.line("gateway"), msg))?;
            }
        }
        spec.check_size()
            .map_err(|msg| doc.at(seen.line("seeds"), msg))?;
        spec.validate()
            .map_err(|e| doc.whole(format_args!("invalid campaign: {e}")))?;
        Ok(spec)
    }

    /// The run count of the matrix, if it is representable.
    fn checked_run_count(&self) -> Option<usize> {
        let seeds = usize::try_from(self.seeds.1.checked_sub(self.seeds.0)?).ok()?;
        let federation = self
            .segments
            .iter()
            .try_fold(0usize, |sum, &k| sum.checked_add(self.federation_combos(k)))?;
        [
            self.detectors.len(),
            self.nodes.len(),
            self.tm.len(),
            self.consistent_rates.len(),
            self.inconsistent_rates.len(),
            self.crash_budgets.len(),
            self.inaccessibility_lens.len(),
            federation,
            seeds,
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
    }

    fn check_size(&self) -> Result<(), String> {
        match self.checked_run_count() {
            Some(runs) if runs <= MAX_RUNS => Ok(()),
            _ => Err(format!("the matrix expands to more than {MAX_RUNS} runs")),
        }
    }

    /// Validates the spec's dimensional coherence.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.check_size()?;
        settled_horizon(self.until, self.settle)?;
        if self.detectors.is_empty() {
            return Err("expected at least one detector backend".into());
        }
        for (i, kind) in self.detectors.iter().enumerate() {
            if self.detectors[..i].contains(kind) {
                return Err(format!("duplicate detector backend `{kind}`"));
            }
        }
        let active = self.until.saturating_sub(self.settle);
        for &tm in &self.tm {
            // Faults are only scheduled once the population is
            // operational (views bootstrapped, surveillance armed).
            let operational = operational_from(tm);
            if active <= operational + BitTime::new(10_000) {
                return Err(format!(
                    "active phase (until - settle = {active}) must extend past \
                     bootstrap ({operational} at tm={tm}) so faults land on an \
                     operational system"
                ));
            }
            for (label, lens) in [
                ("inaccessibility", &self.inaccessibility_lens),
                ("segment-partition", &self.partition_lens),
                ("asymmetric-inaccessibility", &self.asymmetric_lens),
                ("gateway-restart", &self.gateway_restart_delays),
            ] {
                for &len in lens {
                    if !len.is_zero() && operational + len >= active {
                        return Err(format!(
                            "{label} window {len} does not fit the active \
                             phase after bootstrap ({operational} at tm={tm})"
                        ));
                    }
                }
            }
        }
        if self.segments.is_empty() {
            return Err("expected at least one segment count".into());
        }
        let federated = self.segments.iter().any(|&k| k > 1);
        if federated {
            for &n in &self.nodes {
                federated_population(n)?;
                gateway_in_segment(self.gateway, n)?;
            }
        } else {
            let fed_faults = self.gateway_crash_budgets.iter().any(|&g| g > 0)
                || self.partition_lens.iter().any(|l| !l.is_zero())
                || self.asymmetric_lens.iter().any(|l| !l.is_zero())
                || self.gateway_restart_delays.iter().any(|l| !l.is_zero());
            if fed_faults {
                return Err("gateway-crash / gateway-restart / segment-partition / \
                     asymmetric-inaccessibility need a multi-segment combo \
                     (add `segments` with a value > 1)"
                    .into());
            }
        }
        if self.segments.contains(&1)
            && !(self.gateway_crash_budgets.contains(&0)
                && self.partition_lens.contains(&BitTime::ZERO)
                && self.asymmetric_lens.contains(&BitTime::ZERO))
        {
            return Err(
                "single-segment combos need the zero federation-fault combo \
                 (include 0 in gateway-crash and the window dimensions, or \
                 drop `segments 1`)"
                    .into(),
            );
        }
        for &tm in &self.tm {
            let probe = RunSpec {
                tm,
                th: self.th,
                ..RunSpec::default()
            };
            probe.checked_config()?;
        }
        Ok(())
    }

    /// The federation-fault combinations one segment-count dimension
    /// value contributes: single-segment combos collapse to the one
    /// zero-fault combo (validated to exist), federated combos take
    /// the full product.
    fn federation_combos(&self, segments: u8) -> usize {
        if segments == 1 {
            return 1;
        }
        // The restart-delay dimension only multiplies combos that
        // actually crash a gateway; budget-0 combos collapse to the
        // single zero-delay value.
        let delays = self.gateway_restart_delays.len();
        let budgets = self.gateway_crash_budgets.iter();
        let crash_restart: usize = budgets.map(|&g| if g == 0 { 1 } else { delays }).sum();
        crash_restart
            .saturating_mul(self.partition_lens.len())
            .saturating_mul(self.asymmetric_lens.len())
    }

    /// Number of runs the spec expands into, without materializing
    /// them.
    ///
    /// # Panics
    ///
    /// Panics on a spec [`CampaignSpec::validate`] would refuse for
    /// expanding past [`MAX_RUNS`].
    pub fn run_count(&self) -> usize {
        self.checked_run_count()
            .expect("a validated spec expands to at most MAX_RUNS runs")
    }

    /// Expands the matrix into concrete, fully scheduled runs.
    ///
    /// Crash victims/instants and window placement are derived from
    /// the run seed and dimension values only — never from expansion
    /// order — so editing one dimension leaves the schedules of
    /// unrelated combinations unchanged.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(self.run_count());
        for &detector in &self.detectors {
            for &nodes in &self.nodes {
                for &tm in &self.tm {
                    for &consistent_rate in &self.consistent_rates {
                        for &inconsistent_rate in &self.inconsistent_rates {
                            for &budget in &self.crash_budgets {
                                for &window_len in &self.inaccessibility_lens {
                                    for &segments in &self.segments {
                                        for fed in self.federation_matrix(segments) {
                                            for seed in self.seeds.0..self.seeds.1 {
                                                runs.push(self.materialize(
                                                    runs.len(),
                                                    detector,
                                                    nodes,
                                                    tm,
                                                    consistent_rate,
                                                    inconsistent_rate,
                                                    budget,
                                                    window_len,
                                                    fed,
                                                    seed,
                                                ));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        runs
    }

    /// The federation-fault combos for one segment count: the single
    /// `None` for plain runs, the full dimension product for federated
    /// ones. Budget-0 combos carry only the zero restart delay (see
    /// [`CampaignSpec::gateway_restart_delays`]).
    fn federation_matrix(&self, segments: u8) -> Vec<Option<FedCombo>> {
        if segments == 1 {
            return vec![None];
        }
        const NO_RESTART: [BitTime; 1] = [BitTime::ZERO];
        let mut combos = Vec::with_capacity(self.federation_combos(segments));
        for &gateway_crash in &self.gateway_crash_budgets {
            let restarts: &[BitTime] = if gateway_crash == 0 {
                &NO_RESTART
            } else {
                &self.gateway_restart_delays
            };
            for &restart_delay in restarts {
                for &partition_len in &self.partition_lens {
                    for &asymmetric_len in &self.asymmetric_lens {
                        combos.push(Some((
                            segments,
                            gateway_crash,
                            restart_delay,
                            partition_len,
                            asymmetric_len,
                        )));
                    }
                }
            }
        }
        combos
    }

    #[allow(clippy::too_many_arguments)]
    fn materialize(
        &self,
        id: usize,
        detector: DetectorKind,
        nodes: u8,
        tm: BitTime,
        consistent_rate: f64,
        inconsistent_rate: f64,
        budget: u32,
        window_len: BitTime,
        fed: Option<FedCombo>,
        seed: u64,
    ) -> RunSpec {
        // Schedule key: seed + every dimension value, never the run
        // index, so schedules are stable under spec edits. The
        // detector backend is deliberately *excluded*: every backend
        // must face the identical fault schedule for the shootout
        // comparison to be apples-to-apples. Single-segment runs fold
        // no federation words at all, so adding a `segments` dimension
        // to an existing campaign leaves its plain schedules intact.
        let mut key = mix64(seed ^ GOLDEN);
        for word in [
            u64::from(nodes),
            tm.as_u64(),
            consistent_rate.to_bits(),
            inconsistent_rate.to_bits(),
            u64::from(budget),
            window_len.as_u64(),
        ] {
            key = mix64(key.wrapping_add(GOLDEN) ^ word);
        }
        if let Some((segments, gateway_crash, restart_delay, partition_len, asymmetric_len)) = fed {
            let topology = match self.bridge {
                BridgeKind::Line => 1,
                BridgeKind::Ring => 2,
                BridgeKind::Star => 3,
                BridgeKind::Full => 4,
            };
            for word in [
                u64::from(segments),
                u64::from(self.gateway),
                topology,
                u64::from(gateway_crash),
                partition_len.as_u64(),
                asymmetric_len.as_u64(),
            ] {
                key = mix64(key.wrapping_add(GOLDEN) ^ word);
            }
            // The restart-delay word is folded only when non-zero, so
            // every schedule that existed before the failover dimension
            // was added keeps its exact key (and byte-identical
            // summaries).
            if !restart_delay.is_zero() {
                key = mix64(key.wrapping_add(GOLDEN) ^ restart_delay.as_u64());
            }
        }
        let mut rng = SmallRng::seed_from_u64(key);

        // Every fault lands inside the active phase and after the
        // population is operational: the campaign studies steady-state
        // failures, not boot races.
        let lo = operational_from(tm).as_u64();
        let hi = self.until.saturating_sub(self.settle).as_u64();
        let instant =
            |rng: &mut SmallRng, hi: u64| BitTime::new(lo + rng.next_u64() % (hi - lo).max(1));
        let window = |rng: &mut SmallRng, len: BitTime| {
            let latest = hi.saturating_sub(len.as_u64());
            let from = BitTime::new(lo + rng.next_u64() % latest.saturating_sub(lo).max(1));
            (from, from + len)
        };
        let f = budget.min(u32::from(nodes).saturating_sub(2));
        // The draws below keep their order; the schedule is assembled
        // in the order `.canely` lists faults.
        let mut crashes: Vec<(u8, BitTime)> = Vec::new();
        let mut bridged = Vec::new();
        let mut federation = None;

        if let Some((segments, gateway_crash, restart_delay, partition_len, asymmetric_len)) = fed {
            // Federated crashes: `f` distinct (segment, node) victims
            // anywhere in the federation, never a gateway — gateway
            // crashes are their own dimension with their own global
            // semantics.
            let mut taken: Vec<(u8, u8)> = Vec::new();
            let mut remote_crashes = Vec::new();
            while (taken.len() as u32) < f {
                let seg = (rng.next_u64() % u64::from(segments)) as u8;
                let node = (rng.next_u64() % u64::from(nodes)) as u8;
                if node == self.gateway || taken.contains(&(seg, node)) {
                    continue;
                }
                taken.push((seg, node));
                let at = instant(&mut rng, hi);
                if seg == 0 {
                    crashes.push((node, at));
                } else {
                    remote_crashes.push((at, seg, node));
                }
            }
            remote_crashes.sort();
            let crash = |(at, seg, node)| Fault::Crash { seg, node, at };
            bridged.extend(remote_crashes.into_iter().map(crash));

            // Gateway crashes: that many *distinct* segments lose
            // their representative. With a restart delay, the crash is
            // placed early enough that the restart still lands inside
            // the active phase (delay 0 leaves the draw unchanged).
            let g = gateway_crash.min(u32::from(segments));
            let hi_gw = hi.saturating_sub(restart_delay.as_u64()).max(lo + 1);
            let mut lost_gateways: Vec<(u8, BitTime)> = Vec::new();
            while (lost_gateways.len() as u32) < g {
                let seg = (rng.next_u64() % u64::from(segments)) as u8;
                if lost_gateways.iter().any(|&(s, _)| s == seg) {
                    continue;
                }
                lost_gateways.push((seg, instant(&mut rng, hi_gw)));
            }
            lost_gateways.sort_by_key(|&(seg, at)| (at, seg));
            let crash = |&(seg, at): &(u8, BitTime)| Fault::GatewayCrash { seg, at };
            bridged.extend(lost_gateways.iter().map(crash));
            if !restart_delay.is_zero() {
                let restart = |&(seg, at): &(u8, BitTime)| Fault::GatewayRestart {
                    seg,
                    at: at + restart_delay,
                };
                bridged.extend(lost_gateways.iter().map(restart));
            }

            // One inter-segment partition window (all bridges, both
            // directions).
            if !partition_len.is_zero() {
                let (from, until) = window(&mut rng, partition_len);
                bridged.push(Fault::Partition { from, until });
            }

            // One asymmetric window: a random direction of a random
            // bridge goes deaf.
            if !asymmetric_len.is_zero() {
                let bridges = self.bridge.bridges(segments);
                let (a, b) = bridges[(rng.next_u64() as usize) % bridges.len()];
                let (from_seg, to_seg) = if rng.next_u64() % 2 == 0 {
                    (a, b)
                } else {
                    (b, a)
                };
                let (from, until) = window(&mut rng, asymmetric_len);
                bridged.push(Fault::Asymmetric {
                    from_seg,
                    to_seg,
                    from,
                    until,
                });
            }

            federation = Some(FederationSpec {
                segments,
                gateway: self.gateway,
                topology: self.bridge,
                relay: self.relay,
            });
        } else {
            // Crashes: `f` distinct victims.
            while (crashes.len() as u32) < f {
                let node = (rng.next_u64() % u64::from(nodes)) as u8;
                if crashes.iter().any(|&(n, _)| n == node) {
                    continue;
                }
                crashes.push((node, instant(&mut rng, hi)));
            }
        }
        crashes.sort_by_key(|&(_, at)| at);
        let mut faults: Vec<Fault> = crashes
            .into_iter()
            .map(|(node, at)| Fault::Crash { seg: 0, node, at })
            .collect();

        // One inaccessibility window.
        if !window_len.is_zero() {
            let (from, until) = window(&mut rng, window_len);
            faults.push(Fault::Blackout { from, until });
        }
        faults.extend(bridged);

        RunSpec {
            id,
            detector,
            nodes,
            tm,
            th: self.th,
            until: self.until,
            settle: self.settle,
            seed,
            consistent_rate,
            inconsistent_rate,
            omission_degree: self.omission_degree,
            inconsistent_degree: self.inconsistent_degree,
            traffic: self.traffic,
            faults,
            weaken_fda: self.weaken_fda,
            latency_slack: self.latency_slack,
            rejoin_slack: self.rejoin_slack,
            federation,
        }
    }
}

/// One scheduled disturbance of a run: one variant per fault keyword
/// of `.canely`, and it displays as its `.canely` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A fail-silent crash of `node` in segment `seg`: `crash` on
    /// segment 0, `seg-crash` on the others.
    Crash { seg: u8, node: u8, at: BitTime },
    /// Bus inaccessibility during `[from, until)`, on every segment
    /// (`inaccessible`).
    Blackout { from: BitTime, until: BitTime },
    /// A crash of segment `seg`'s configured gateway (`gateway-crash`).
    GatewayCrash { seg: u8, at: BitTime },
    /// A power-cycle of segment `seg`'s crashed gateway: it comes back
    /// as a fresh standby under the elected successor
    /// (`gateway-restart`).
    GatewayRestart { seg: u8, at: BitTime },
    /// Every bridge blocked in both directions during `[from, until)`
    /// (`segment-partition`).
    Partition { from: BitTime, until: BitTime },
    /// The `from_seg → to_seg` direction of one bridge blocked during
    /// `[from, until)` (`asymmetric`).
    Asymmetric {
        from_seg: u8,
        to_seg: u8,
        from: BitTime,
        until: BitTime,
    },
}

impl Fault {
    /// The last instant the fault disturbs the run.
    pub(crate) fn last(&self) -> BitTime {
        match *self {
            Fault::Crash { at, .. }
            | Fault::GatewayCrash { at, .. }
            | Fault::GatewayRestart { at, .. } => at,
            Fault::Blackout { until, .. }
            | Fault::Partition { until, .. }
            | Fault::Asymmetric { until, .. } => until,
        }
    }
}

/// The shape of a run that spans more than one segment; the plain
/// fields of [`RunSpec`] then describe *each* segment's population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FederationSpec {
    /// Number of segments (≥ 2; 1 only in the default, a plain run).
    pub segments: u8,
    /// Local node id of every segment's gateway.
    pub gateway: u8,
    /// Bridge topology.
    pub topology: BridgeKind,
    /// Which application frames gateways relay.
    pub relay: RelayFilter,
}

impl Default for FederationSpec {
    /// The single segment a plain run executes in: no bridge, nothing
    /// to relay.
    fn default() -> Self {
        FederationSpec {
            segments: 1,
            gateway: 0,
            topology: BridgeKind::Ring,
            relay: RelayFilter::None,
        }
    }
}

/// One fully scheduled simulation: everything needed to reproduce the
/// run bit-for-bit, in plain data (`Send`, hashable textual form).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Index within the expanded campaign matrix.
    pub id: usize,
    /// The failure-detector backend every node runs.
    pub detector: DetectorKind,
    /// Population size (nodes `0..nodes`, all integrated at boot).
    pub nodes: u8,
    /// Membership cycle period (`Tm`).
    pub tm: BitTime,
    /// Heartbeat period (`Th`).
    pub th: BitTime,
    /// Run horizon.
    pub until: BitTime,
    /// Quiescence margin before the horizon.
    pub settle: BitTime,
    /// Fault-injector seed.
    pub seed: u64,
    /// Consistent omission probability per transmission.
    pub consistent_rate: f64,
    /// Inconsistent omission probability per transmission.
    pub inconsistent_rate: f64,
    /// MCAN3 omission degree bound `k`.
    pub omission_degree: u32,
    /// LCAN4 inconsistent omission degree bound `j`.
    pub inconsistent_degree: u32,
    /// Cyclic traffic period on every node, if any.
    pub traffic: Option<BitTime>,
    /// The fault schedule. A run a campaign expands lists its faults
    /// in the order [`RunSpec::to_scenario`] writes them: segment-0
    /// crashes, blackouts, then the bridge-level faults.
    pub faults: Vec<Fault>,
    /// Run against the weakened failure-detection mutant.
    pub weaken_fda: bool,
    /// Oracle slack on latency bounds.
    pub latency_slack: BitTime,
    /// Oracle slack on the federation rejoin bound.
    pub rejoin_slack: BitTime,
    /// Multi-segment topology and bridge-level fault schedule;
    /// `None` = the plain single-bus stack.
    pub federation: Option<FederationSpec>,
}

impl Default for RunSpec {
    /// The run an empty `.canely` file describes: four silent nodes,
    /// no fault, the paper's `Tm` / `Th`.
    fn default() -> Self {
        RunSpec {
            id: 0,
            detector: DetectorKind::Surveillance,
            nodes: 4,
            tm: BitTime::new(30_000),
            th: BitTime::new(5_000),
            until: BitTime::new(600_000),
            settle: BitTime::new(150_000),
            seed: 0,
            consistent_rate: 0.0,
            inconsistent_rate: 0.0,
            omission_degree: 16,
            inconsistent_degree: 2,
            traffic: None,
            faults: Vec::new(),
            weaken_fda: false,
            latency_slack: BitTime::new(4_000),
            rejoin_slack: BitTime::new(30_000),
            federation: None,
        }
    }
}

impl RunSpec {
    /// The stack configuration of every node in this run.
    ///
    /// # Panics
    ///
    /// Panics if the derived configuration is invalid — which no run
    /// that came out of a reader is (see [`RunSpec::checked_config`]).
    pub fn config(&self) -> CanelyConfig {
        self.checked_config().expect("run config must validate")
    }

    /// [`RunSpec::config`] for parameters not validated yet: every
    /// reader (`.campaign`, `.canely`, CLI flags) goes through this.
    ///
    /// # Errors
    ///
    /// Returns the first violated timing constraint.
    pub fn checked_config(&self) -> Result<CanelyConfig, String> {
        let mut config = CanelyConfig::default()
            .with_membership_cycle(self.tm)
            .with_heartbeat_period(self.th)
            .with_inconsistent_degree(self.inconsistent_degree)
            .with_detector(self.detector);
        config.join_wait = self.tm * 2 + BitTime::new(10_000);
        if self.weaken_fda {
            config = config.with_weakened_fda();
        }
        config.validate()?;
        Ok(config)
    }

    /// The bus fault plan of this run, drawing from `seed` (the run
    /// seed on a single bus; a derived one per federated segment).
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::seeded(seed)
            .with_consistent_rate(self.consistent_rate)
            .with_inconsistent_rate(self.inconsistent_rate)
            .with_omission_bound(self.omission_degree, BitTime::new(100_000))
            .with_inconsistent_bound(self.inconsistent_degree);
        for fault in &self.faults {
            if let Fault::Blackout { from, until } = *fault {
                plan.push_inaccessibility(from, until);
            }
        }
        plan
    }

    /// The closed-form bounds of the *correct* protocol at this run's
    /// parameters — the oracle judges even mutant runs against these.
    pub fn bounds(&self) -> ProtocolBounds {
        ProtocolBounds::for_params(
            self.th,
            self.tm,
            RHA_TIMEOUT,
            self.inconsistent_degree,
            // Conservative for federated runs: count every crash in
            // the federation even though each lands in one segment —
            // overcounting only loosens the bound.
            self.faults
                .iter()
                .filter(|f| matches!(f, Fault::Crash { .. } | Fault::GatewayCrash { .. }))
                .count() as u32,
        )
    }

    /// Total scheduled bus blackout — added to latency bounds, since a
    /// detection window may overlap any of it.
    pub fn total_inaccessibility(&self) -> BitTime {
        self.faults.iter().fold(BitTime::ZERO, |acc, f| match *f {
            Fault::Blackout { from, until } => acc + until.saturating_sub(from),
            _ => acc,
        })
    }

    /// The admissible crash-detection latency for this run: the
    /// closed-form surveillance bound, widened by the backend's extra
    /// margin (zero for the paper's detector — see
    /// [`DetectorKind::extra_detection_margin`]), the scheduled
    /// blackout and the oracle slack.
    pub fn detection_bound(&self) -> BitTime {
        self.bounds().detection_latency()
            + self
                .detector
                .extra_detection_margin(self.th, TX_DELAY_BOUND)
            + self.total_inaccessibility()
            + self.latency_slack
    }

    /// The admissible crash-to-view-change latency for this run.
    pub fn view_change_bound(&self) -> BitTime {
        self.detection_bound() + self.bounds().membership_change_latency() + self.latency_slack
    }

    /// The admissible gateway-loss-to-reconverged-global-view latency
    /// of a federated run (`ZERO` for plain runs): the local view
    /// change that expels the gateway — which is what triggers the
    /// successor's promotion — plus the promoted digest flooding the
    /// topology and the quorum of endorsements flowing back, counted
    /// conservatively as `segments + 1` gossip rounds of one digest
    /// period and one bridge quantum each, widened by every scheduled
    /// bridge-level blackout window and the configured rejoin slack.
    pub fn rejoin_bound(&self) -> BitTime {
        let Some(fed) = &self.federation else {
            return BitTime::ZERO;
        };
        let round = DIGEST_PERIOD + QUANTUM;
        let bound =
            self.view_change_bound() + round * (u64::from(fed.segments) + 1) + self.rejoin_slack;
        self.faults.iter().fold(bound, |acc, f| match *f {
            Fault::Partition { from, until } | Fault::Asymmetric { from, until, .. } => {
                acc + until.saturating_sub(from)
            }
            _ => acc,
        })
    }

    /// The initial membership: nodes `0..nodes`.
    pub fn members(&self) -> NodeSet {
        NodeSet::first_n(self.nodes as usize)
    }

    /// When this run's population is fully operational (see the
    /// module-level bootstrap discussion); the oracle starts latency
    /// clocks no earlier than this.
    pub fn operational_from(&self) -> BitTime {
        operational_from(self.tm)
    }

    /// Whether the run is quiescent at its horizon — end-of-run view
    /// checks are sound only then: `settle` separates `until` from the
    /// last scheduled fault and from `last_crash`, the last crash the
    /// world logged. A crash that a bus fault caused (an inconsistent
    /// omission whose sender crashes) is on no schedule, so only the
    /// world's crash log knows it; `None` asks about the schedule alone.
    pub fn quiescent_after(&self, last_crash: Option<BitTime>) -> bool {
        let last = self.faults.iter().map(Fault::last).chain(last_crash).max();
        last.unwrap_or(BitTime::ZERO) + self.settle <= self.until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
name unit
nodes 4 5
tm 30ms
seeds 0..3
error-rate 0 0.02
crash-budget 1
inaccessibility 0 2ms
until 300ms
settle 150ms
";

    #[test]
    fn parse_and_expand_counts() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.name, "unit");
        // 2 node counts × 2 rates × 2 windows × 3 seeds.
        assert_eq!(spec.run_count(), 24);
        let runs = spec.expand();
        assert_eq!(runs.len(), 24);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.id, i);
            assert!(matches!(run.faults[0], Fault::Crash { seg: 0, .. }));
            assert!(run.faults[1..]
                .iter()
                .all(|f| matches!(f, Fault::Blackout { .. })));
            assert!(run.quiescent_after(None));
        }
    }

    #[test]
    fn expansion_is_deterministic() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.expand(), spec.expand());
    }

    #[test]
    fn schedules_stable_under_dimension_edits() {
        // Removing one dimension value must not change the schedule
        // derived for the surviving combinations.
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let narrowed = CampaignSpec::parse(&SMOKE.replace("nodes 4 5", "nodes 4")).unwrap();
        let wide: Vec<_> = spec.expand().into_iter().filter(|r| r.nodes == 4).collect();
        let narrow = narrowed.expand();
        assert_eq!(wide.len(), narrow.len());
        for (a, b) in wide.iter().zip(&narrow) {
            assert_eq!(a.faults, b.faults);
            assert_eq!(a.seed, b.seed);
        }
    }

    /// Every run of the campaign `text` survives `.canely` and back.
    fn assert_round_trips(text: &str) -> Vec<RunSpec> {
        let runs = CampaignSpec::parse(text).unwrap().expand();
        for run in &runs {
            let mut back = RunSpec::from_scenario(&run.to_scenario()).unwrap();
            back.id = run.id; // ids are not serialized state
            assert_eq!(back, *run, "round-trip of run {}", run.id);
        }
        runs
    }

    #[test]
    fn scenario_round_trip() {
        assert_round_trips(SMOKE);
    }

    #[test]
    fn rejects_unmodelled_schedules() {
        assert!(RunSpec::from_scenario("join 9 10ms")
            .unwrap_err()
            .contains("join"));
        assert!(RunSpec::from_scenario("frobnicate")
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn validation_catches_bad_geometry() {
        assert!(CampaignSpec::parse("until 100ms\nsettle 100ms").is_err());
        assert!(CampaignSpec::parse("seeds 5..5").is_err());
        assert!(CampaignSpec::parse("error-rate 1.5").is_err());
        assert!(CampaignSpec::parse("nodes 1").is_err());
    }

    #[test]
    fn detector_dimension_multiplies_runs_but_not_schedules() {
        let shootout =
            CampaignSpec::parse(&format!("{SMOKE}detector surveillance swim add-phi\n")).unwrap();
        assert_eq!(shootout.run_count(), 72);
        let runs = shootout.expand();
        assert_eq!(runs.len(), 72);
        // Every backend faces byte-identical fault schedules: the
        // detector is not part of the schedule key.
        let surveillance: Vec<_> = runs
            .iter()
            .filter(|r| r.detector == DetectorKind::Surveillance)
            .collect();
        for kind in [DetectorKind::Swim, DetectorKind::AddPhi] {
            let alt: Vec<_> = runs.iter().filter(|r| r.detector == kind).collect();
            assert_eq!(surveillance.len(), alt.len());
            for (a, b) in surveillance.iter().zip(&alt) {
                assert_eq!(a.faults, b.faults);
                assert_eq!(a.seed, b.seed);
            }
        }
    }

    #[test]
    fn detector_widens_detection_bound_and_round_trips() {
        for run in assert_round_trips(&format!("{SMOKE}detector swim add-phi\n")) {
            let baseline = RunSpec {
                detector: DetectorKind::Surveillance,
                ..run.clone()
            };
            assert!(run.detection_bound() > baseline.detection_bound());
        }
    }

    #[test]
    fn rejects_bad_detector_lines() {
        assert!(CampaignSpec::parse("detector frobnicate")
            .unwrap_err()
            .contains("unknown detector"));
        assert!(CampaignSpec::parse("detector swim swim")
            .unwrap_err()
            .contains("duplicate"));
    }

    const FED: &str = "\
name fed
nodes 8
tm 30ms
seeds 0..2
crash-budget 1
segments 1 3
bridge ring
relay below 8
gateway-crash 0 1
segment-partition 0 20ms
until 400ms
settle 150ms
";

    #[test]
    fn named_diagnostics_carry_file_and_line() {
        let e = CampaignSpec::parse_named("bad.campaign", "nodes 4\nfrobnicate 1\n").unwrap_err();
        assert_eq!(e, "bad.campaign:2: unknown keyword `frobnicate`");
        let e = CampaignSpec::parse_named("bad.campaign", "tm 30ms\nnodes 1\n").unwrap_err();
        assert_eq!(e, "bad.campaign:2: bad node count `1`");
        let e =
            RunSpec::from_scenario_named("repro.canely", "nodes 4\ncrash x 10ms\n").unwrap_err();
        assert_eq!(e, "repro.canely:2: bad node id `x`");
        // Diagnostics without a line anchor keep a plain file prefix.
        let e =
            CampaignSpec::parse_named("geo.campaign", "until 100ms\nsettle 100ms\n").unwrap_err();
        assert_eq!(
            e,
            "geo.campaign: invalid campaign: horizon (until) must exceed the settle margin"
        );
    }

    #[test]
    fn federation_dimensions_expand_and_skip_plain_combos() {
        let spec = CampaignSpec::parse(FED).unwrap();
        // Non-fed dims give 2 runs (1 crash budget × 2 seeds); the
        // segment dimension contributes 1 (plain) + 2×2 (gateway-crash
        // × partition) federated combos.
        assert_eq!(spec.run_count(), 10);
        let runs = spec.expand();
        assert_eq!(runs.len(), 10);
        assert_eq!(runs, spec.expand(), "expansion must be deterministic");
        let plain = runs.iter().filter(|r| r.federation.is_none()).count();
        assert_eq!(plain, 2, "one plain combo × two seeds");
        for run in runs.iter().filter(|r| r.federation.is_some()) {
            let fed = run.federation.as_ref().unwrap();
            assert_eq!(fed.segments, 3);
            assert_eq!(fed.relay, RelayFilter::Below(8));
            // The generic crash budget spans the whole federation and
            // never hits a gateway.
            let crashes: Vec<_> = run
                .faults
                .iter()
                .filter_map(|f| match *f {
                    Fault::Crash { seg, node, .. } => Some((seg, node)),
                    _ => None,
                })
                .collect();
            assert_eq!(crashes.len(), 1);
            assert!(crashes
                .iter()
                .all(|&(s, n)| s < fed.segments && n != fed.gateway));
            assert!(run.quiescent_after(None));
        }
        let any = |pred: fn(&Fault) -> bool| runs.iter().any(|r| r.faults.iter().any(pred));
        assert!(
            any(|f| matches!(f, Fault::GatewayCrash { .. })),
            "the gateway-crash budget must materialize"
        );
        assert!(
            any(|f| matches!(f, Fault::Partition { .. })),
            "the partition window must materialize"
        );
    }

    #[test]
    fn plain_schedules_unaffected_by_federation_dimensions() {
        let base = CampaignSpec::parse(
            "name fed\nnodes 8\ntm 30ms\nseeds 0..2\ncrash-budget 1\nuntil 400ms\nsettle 150ms\n",
        )
        .unwrap();
        let fed = CampaignSpec::parse(FED).unwrap();
        let plain: Vec<_> = fed
            .expand()
            .into_iter()
            .filter(|r| r.federation.is_none())
            .collect();
        let baseline = base.expand();
        assert_eq!(plain.len(), baseline.len());
        for (a, b) in plain.iter().zip(&baseline) {
            assert_eq!(a.faults, b.faults, "plain schedules must be key-stable");
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn federated_scenario_round_trip() {
        assert_round_trips(FED);
    }

    #[test]
    fn rejects_incoherent_federation_specs() {
        // Federation faults without a multi-segment combo.
        assert!(CampaignSpec::parse("gateway-crash 1")
            .unwrap_err()
            .contains("multi-segment"));
        // Populations past the digest encoding.
        assert!(CampaignSpec::parse("nodes 40\nsegments 2")
            .unwrap_err()
            .contains("cap at 32"));
        // Scenario-side: fed lines without segments.
        assert!(RunSpec::from_scenario("gateway-crash 0 100ms")
            .unwrap_err()
            .contains("segments"));
        // Asymmetric windows must name a bridged pair.
        assert!(RunSpec::from_scenario(
            "nodes 4\nsegments 3\nbridge line\nasymmetric 0 2 100ms 120ms"
        )
        .unwrap_err()
        .contains("unbridged"));
    }

    #[test]
    fn gateway_range_errors_are_line_anchored() {
        // An out-of-range gateway id must surface as a `file:line:`
        // parse diagnostic, never as the downstream
        // `FederationConfig::with_gateway` assertion.
        let e = CampaignSpec::parse_named(
            "fed.campaign",
            "nodes 4\ntm 30ms\nsegments 2\ngateway 7\nuntil 400ms\nsettle 150ms\n",
        )
        .unwrap_err();
        assert_eq!(e, "fed.campaign:4: gateway node 7 outside a 4-node segment");
        let e = RunSpec::from_scenario_named("repro.canely", "nodes 4\nsegments 2\ngateway 7\n")
            .unwrap_err();
        assert_eq!(e, "repro.canely:3: gateway node 7 outside a 4-node segment");
        // In range for one population, out of range for another: the
        // diagnostic names the offending segment size.
        let e = CampaignSpec::parse_named(
            "fed.campaign",
            "nodes 8 4\ntm 30ms\nsegments 2\ngateway 5\nuntil 400ms\nsettle 150ms\n",
        )
        .unwrap_err();
        assert_eq!(e, "fed.campaign:4: gateway node 5 outside a 4-node segment");
    }

    #[test]
    fn gateway_restart_dimension_expands_and_keeps_keys_stable() {
        let base = CampaignSpec::parse(FED).unwrap();
        let with = CampaignSpec::parse(&format!("{FED}gateway-restart 0 40ms\n")).unwrap();
        // Budget-0 gateway-crash combos collapse to the single zero
        // restart delay, so only the budget-1 combos multiply: the
        // segment dimension goes 1 + (1 + 2)×2 = 7 combos × 2 seeds.
        assert_eq!(base.run_count(), 10);
        assert_eq!(with.run_count(), 14);
        let runs = with.expand();
        assert_eq!(runs.len(), 14);
        // Every restart follows its crash by exactly the delay.
        let gateway_faults = |r: &RunSpec| {
            let (mut crashes, mut restarts) = (Vec::new(), Vec::new());
            for &f in &r.faults {
                match f {
                    Fault::GatewayCrash { seg, at } => crashes.push((seg, at)),
                    Fault::GatewayRestart { seg, at } => restarts.push((seg, at)),
                    _ => {}
                }
            }
            (crashes, restarts)
        };
        let mut restarted = 0;
        for (crashes, restarts) in runs.iter().map(gateway_faults) {
            if restarts.is_empty() {
                continue;
            }
            restarted += 1;
            assert_eq!(restarts.len(), crashes.len());
            for (&(seg, tc), &(rseg, tr)) in crashes.iter().zip(&restarts) {
                assert_eq!(seg, rseg);
                assert_eq!(tr, tc + BitTime::new(40_000));
            }
        }
        assert!(restarted > 0, "the restart delay must materialize");
        // Adding the dimension must not disturb any pre-existing
        // schedule: every run of the restart-free campaign reappears
        // byte-identically among the delay-0 runs.
        for old in base.expand() {
            assert!(
                runs.iter().any(|r| {
                    r.seed == old.seed && r.faults == old.faults && r.federation == old.federation
                }),
                "run {} lost its schedule under the new dimension",
                old.id
            );
        }
    }

    #[test]
    fn restart_scenarios_round_trip() {
        assert_round_trips(&format!("{FED}gateway-restart 0 40ms\n"));
    }

    #[test]
    fn rejects_orphan_gateway_restarts() {
        // A restart needs an earlier crash of the same segment.
        assert!(
            RunSpec::from_scenario("nodes 4\nsegments 2\ngateway-restart 0 100ms")
                .unwrap_err()
                .contains("no earlier")
        );
        assert!(RunSpec::from_scenario(
            "nodes 4\nsegments 2\ngateway-crash 1 50ms\ngateway-restart 0 100ms"
        )
        .unwrap_err()
        .contains("no earlier"));
    }

    #[test]
    fn bounds_scale_with_run_parameters() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let runs = spec.expand();
        let blackout = |r: &&RunSpec| r.faults.iter().any(|f| matches!(f, Fault::Blackout { .. }));
        let windowed = runs.iter().find(blackout).unwrap();
        let clean = runs.iter().find(|r| !blackout(r)).unwrap();
        assert_eq!(
            windowed.detection_bound(),
            clean.detection_bound() + windowed.total_inaccessibility()
        );
        assert!(windowed.view_change_bound() > windowed.detection_bound());
    }
}
