//! The four workloads: what input each generates from the seed, which
//! `canelyctl` invocations make one timed operation, and how the
//! outputs are checked. The program under test only ever sees the
//! generated files and flags.

use crate::child::{self, Cost};
use crate::json::Json;
use crate::spans::Recorder;
use std::path::{Path, PathBuf};

/// One workload of the ledger.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MatrixSmall,
    MatrixTelemetry,
    Fed4x32,
    TraceQuery,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "matrix-small",
        why: "Everyday 1024-run fault matrix at n=3..4: bus arbitration + fault injection dominate; O(n)-per-frame and federation changes should barely show.",
        kind: Kind::MatrixSmall,
    },
    Workload {
        name: "matrix-telemetry",
        why: "Same matrix with the metrics registry and both phase profilers live: the only workload where canely-metrics does work; must not move matrix-small.",
        kind: Kind::MatrixTelemetry,
    },
    Workload {
        name: "fed-4x32",
        why: "4 ring-bridged 32-node segments, gateway crash + partition: protocol dispatch and event volume dominate; the only workload where canely-federation runs.",
        kind: Kind::Fed4x32,
    },
    Workload {
        name: "trace-query",
        why: "Full-fidelity capture + JSONL export feeding tq chain/phases/summary/reexport and the Chrome export: obs write path and canely-trace read path, not simulator speed.",
        kind: Kind::TraceQuery,
    },
];

/// Which flavour of a workload's operation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The operation the timed loop measures.
    Timed,
    /// The same campaign at two workers (summary must not change).
    TwoWorkers,
    /// Telemetry off, whatever the workload times (the traced run's
    /// twin; campaigns only differ from `Timed` on `matrix-telemetry`).
    Untraced,
    /// Telemetry on: the registry snapshot the per-layer rows read.
    Traced,
}

/// A file an operation produced, reduced to what is compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    pub name: &'static str,
    pub digest: u64,
    pub bytes: u64,
    /// Newlines in the file.
    pub lines: u64,
}

/// One completed operation: its cost and what it wrote.
#[derive(Debug, Clone)]
pub struct Pass {
    pub cost: Cost,
    pub artifacts: Vec<Artifact>,
    /// Span of the (last) CLI invocation, when recording.
    pub span: Option<usize>,
}

impl Pass {
    fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// The re-exported trace, if the operation made one, is identical
    /// to the trace it was parsed from.
    fn lossless(&self) -> bool {
        match (
            self.artifact("trace.jsonl"),
            self.artifact("reexport.jsonl"),
        ) {
            (Some(t), Some(r)) => t.digest == r.digest && t.bytes == r.bytes,
            _ => true,
        }
    }
}

/// What the first, verified operation established; later operations
/// must reproduce `artifacts` byte for byte.
#[derive(Debug, Clone)]
pub struct Facts {
    pub artifacts: Vec<Artifact>,
    /// Summary `events` (campaigns) or captured trace lines.
    pub events: u64,
    pub detection_bt_max: u64,
    pub view_change_bt_max: u64,
    /// Bytes the operation wrote to stdout.
    pub out_bytes: u64,
    /// Size of the trace document (`trace-query` only, else 0).
    pub trace_bytes: u64,
}

/// Where and on what a workload runs.
pub struct Ctx<'a> {
    pub canelyctl: &'a Path,
    /// The workload's own directory under `benchmark/out/`.
    pub dir: PathBuf,
    pub seed: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit, continued from state `h`: a fixed, dependency-free
/// content digest. It guards against accidental output drift, not
/// against an adversary.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digests a file in fixed-size chunks. The harness must stay smaller
/// than the children it measures (see `child::Cost::maxrss_kib`), so
/// it never holds a multi-megabyte output in memory.
fn digest_file(name: &'static str, path: &Path) -> Result<Artifact, String> {
    use std::io::Read as _;
    let fail = |e: std::io::Error| format!("cannot read `{}`: {e}", path.display());
    let mut file = std::fs::File::open(path).map_err(fail)?;
    let mut chunk = [0u8; 64 * 1024];
    let mut artifact = Artifact {
        name,
        digest: FNV_OFFSET,
        bytes: 0,
        lines: 0,
    };
    loop {
        let n = file.read(&mut chunk).map_err(fail)?;
        if n == 0 {
            return Ok(artifact);
        }
        artifact.digest = fnv1a(artifact.digest, &chunk[..n]);
        artifact.bytes += n as u64;
        artifact.lines += chunk[..n].iter().filter(|&&b| b == b'\n').count() as u64;
    }
}

/// The smoke-shaped fault matrix: `seeds` consecutive seeds × 32
/// combinations of node count, fault rates, crash budget and
/// inaccessibility.
pub fn matrix_spec(name: &str, seed: u64, seeds: u64) -> String {
    let lo = 1000 * seed;
    format!(
        "name {name}\nnodes 3 4\ntm 30ms\nth 5ms\nseeds {lo}..{hi}\nerror-rate 0 0.01\n\
         inconsistent-rate 0 0.005\ncrash-budget 0 1\ninaccessibility 0 2ms\n\
         until 300ms\nsettle 150ms\n",
        hi = lo + seeds
    )
}

/// `scenarios/federation.campaign` (copied, so the benchmark's input
/// cannot change under it) with one seed and `segments` segments. One
/// segment has no bridge to fault, and the grammar rejects the
/// bridge-fault lines there.
pub fn federation_spec(name: &str, seed: u64, segments: u8) -> String {
    let lo = 1000 * seed;
    let bridge_faults = if segments > 1 {
        "gateway-crash 0 1\nsegment-partition 0 20ms\n"
    } else {
        ""
    };
    format!(
        "name {name}\nnodes 32\ntm 30ms\nth 5ms\nseeds {lo}..{hi}\ncrash-budget 1\n\
         segments {segments}\ngateway 0\nbridge ring\nrelay below 8\n{bridge_faults}\
         traffic 12ms\nuntil 600ms\nsettle 250ms\n",
        hi = lo + 1
    )
}

/// The scenario flags of the `trace-query` capture.
pub fn capture_flags(seed: u64) -> Vec<String> {
    let mut flags: Vec<String> = [
        "--nodes",
        "8",
        "--traffic",
        "2ms",
        "--crash",
        "7@160ms",
        "--until",
        "1500ms",
        "--error-rate",
        "0.005",
        "--seed",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    flags.push((1000 * seed).to_string());
    flags
}

const TELEMETRY_FLAGS: [&str; 4] = [
    "--progress",
    "--metrics-json",
    // Longer than any run: only the final line and snapshot print.
    "--progress-interval-ms",
    "600000",
];

struct Step {
    artifact: &'static str,
    args: Vec<String>,
}

fn strs(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    pub fn is_campaign(&self) -> bool {
        self.kind != Kind::TraceQuery
    }

    /// Complete simulations one operation performs.
    pub fn sim_runs(&self) -> u64 {
        match self.kind {
            Kind::MatrixSmall | Kind::MatrixTelemetry => 1024,
            Kind::Fed4x32 => 4,
            // The JSONL capture and the Chrome capture.
            Kind::TraceQuery => 2,
        }
    }

    /// Simulated bit-times one operation covers: runs × segments ×
    /// horizon.
    pub fn sim_bit_times(&self) -> u64 {
        match self.kind {
            Kind::MatrixSmall | Kind::MatrixTelemetry => 1024 * 300_000,
            Kind::Fed4x32 => 4 * 4 * 600_000,
            Kind::TraceQuery => 2 * 1_500_000,
        }
    }

    fn spec_path(&self, ctx: &Ctx<'_>) -> PathBuf {
        ctx.dir.join("input.campaign")
    }

    /// Writes the workload's input files for `ctx.seed`.
    pub fn generate(&self, ctx: &Ctx<'_>) -> Result<(), String> {
        std::fs::create_dir_all(&ctx.dir)
            .map_err(|e| format!("cannot create `{}`: {e}", ctx.dir.display()))?;
        let text = match self.kind {
            Kind::MatrixSmall | Kind::MatrixTelemetry => matrix_spec(self.name, ctx.seed, 32),
            Kind::Fed4x32 => federation_spec(self.name, ctx.seed, 4),
            // Inputs are flags only.
            Kind::TraceQuery => return Ok(()),
        };
        let path = self.spec_path(ctx);
        std::fs::write(&path, text).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }

    fn steps(&self, ctx: &Ctx<'_>, variant: Variant) -> Vec<Step> {
        if self.is_campaign() {
            let workers = if variant == Variant::TwoWorkers {
                "2"
            } else {
                "1"
            };
            let spec = self.spec_path(ctx);
            let mut args = strs(&[
                "campaign",
                "run",
                "--spec",
                &spec.to_string_lossy(),
                "--workers",
                workers,
                "--json",
            ]);
            let telemetry = match variant {
                Variant::Traced => true,
                Variant::Untraced => false,
                Variant::Timed | Variant::TwoWorkers => self.kind == Kind::MatrixTelemetry,
            };
            if telemetry {
                args.extend(strs(&TELEMETRY_FLAGS));
            }
            return vec![Step {
                artifact: "summary.json",
                args,
            }];
        }
        let flags = capture_flags(ctx.seed);
        let with_flags = |head: &[&str], tail: &[&str]| {
            let mut args = strs(head);
            args.extend(flags.iter().cloned());
            args.extend(strs(tail));
            args
        };
        if variant == Variant::Traced {
            // The registry for a CLI scenario comes from `metrics`.
            return vec![Step {
                artifact: "registry.json",
                args: with_flags(&["metrics"], &["--live", "--json", "--profile"]),
            }];
        }
        let trace = ctx.dir.join("trace.jsonl");
        let trace = trace.to_string_lossy();
        let tq = |sub: &str, extra: &[&str]| {
            let mut args = strs(&["tq", sub, "--trace", &trace]);
            args.extend(strs(extra));
            args
        };
        vec![
            Step {
                artifact: "trace.jsonl",
                args: with_flags(&["trace"], &["--jsonl"]),
            },
            Step {
                artifact: "chain.txt",
                args: tq("chain", &["--suspect", "7"]),
            },
            Step {
                artifact: "phases.txt",
                args: tq("phases", &[]),
            },
            Step {
                artifact: "summary.txt",
                args: tq("summary", &[]),
            },
            Step {
                artifact: "reexport.jsonl",
                args: tq("reexport", &[]),
            },
            Step {
                artifact: "chrome.json",
                args: with_flags(&["trace"], &["--chrome"]),
            },
        ]
    }

    /// Runs one operation. Only the children are on the clock: the
    /// cost is the sum over the operation's invocations, and the files
    /// are read back and digested after the last one has exited.
    pub fn run(
        &self,
        ctx: &Ctx<'_>,
        variant: Variant,
        mut rec: Option<&mut Recorder>,
    ) -> Result<Pass, String> {
        let steps = self.steps(ctx, variant);
        let mut total: Option<Cost> = None;
        let mut span = None;
        for step in &steps {
            let args: Vec<&str> = step.args.iter().map(String::as_str).collect();
            let stdout = ctx.dir.join(step.artifact);
            let stderr = ctx.dir.join(format!("{}.stderr", step.artifact));
            let id = rec
                .as_deref_mut()
                .map(|r| r.enter(&format!("cli:{}", step.args[..2].join(" "))));
            let cost = child::run(ctx.canelyctl, &args, &stdout, &stderr)?;
            if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
                r.exit(id);
                span = Some(id);
            }
            match &mut total {
                Some(t) => t.absorb(cost),
                None => total = Some(cost),
            }
        }
        let mut artifacts = Vec::with_capacity(steps.len());
        for step in &steps {
            artifacts.push(digest_file(step.artifact, &ctx.dir.join(step.artifact))?);
        }
        Ok(Pass {
            cost: total.expect("every workload has a step"),
            artifacts,
            span,
        })
    }

    fn read(&self, ctx: &Ctx<'_>, artifact: &str) -> Result<Vec<u8>, String> {
        let path = ctx.dir.join(artifact);
        std::fs::read(&path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
    }

    /// The stderr the last run of `artifact`'s step left behind.
    pub fn stderr_of(&self, ctx: &Ctx<'_>, artifact: &str) -> Result<String, String> {
        let bytes = self.read(ctx, &format!("{artifact}.stderr"))?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// The stdout the last run of `artifact`'s step left behind.
    pub fn stdout_of(&self, ctx: &Ctx<'_>, artifact: &str) -> Result<String, String> {
        let bytes = self.read(ctx, artifact)?;
        String::from_utf8(bytes).map_err(|_| format!("`{artifact}` is not UTF-8"))
    }

    /// Whether `pass` reproduces `facts`: clean exit, every artifact
    /// the reference knows byte-identical, and the re-exported trace
    /// identical to the trace it was parsed from.
    pub fn reproduces(pass: &Pass, facts: &Facts) -> bool {
        pass.cost.ok
            && pass.lossless()
            && pass.artifacts.iter().all(|a| {
                facts
                    .artifacts
                    .iter()
                    .find(|f| f.name == a.name)
                    .is_none_or(|f| f == a)
            })
    }

    /// Checks the outputs of the operation that just ran for what they
    /// *say* — no violations, the expected run count, a complete causal
    /// chain — and extracts the facts later operations are held to.
    pub fn verify(&self, ctx: &Ctx<'_>, pass: &Pass) -> Result<Facts, String> {
        if !pass.cost.ok {
            // The failing step may be any of the pass's; show them all.
            let mut said = String::new();
            for a in &pass.artifacts {
                said.push_str(self.stderr_of(ctx, a.name)?.trim());
            }
            return Err(format!("{}: canelyctl exited non-zero: {said}", self.name));
        }
        let out_bytes = pass.artifacts.iter().map(|a| a.bytes).sum();
        let mut facts = Facts {
            artifacts: pass.artifacts.clone(),
            events: 0,
            detection_bt_max: 0,
            view_change_bt_max: 0,
            out_bytes,
            trace_bytes: 0,
        };
        if self.is_campaign() {
            let text = self.stdout_of(ctx, "summary.json")?;
            let (mut runs, mut violating) = (0, false);
            Json::scan(text.lines().next().unwrap_or(""), &mut |path, value| {
                let path: Vec<&str> = path.iter().map(String::as_str).collect();
                let n = value.as_f64().unwrap_or(0.0) as u64;
                match path[..] {
                    ["runs"] => runs = n,
                    ["events"] => facts.events = n,
                    ["violating_runs", ..] => violating = true,
                    ["latency", "detection", "max"] => {
                        facts.detection_bt_max = facts.detection_bt_max.max(n);
                    }
                    ["latency", "view_change", "max"] => {
                        facts.view_change_bt_max = facts.view_change_bt_max.max(n);
                    }
                    _ => {}
                }
            })
            .map_err(|e| format!("{}: summary is not JSON: {e}", self.name))?;
            if runs != self.sim_runs() {
                return Err(format!(
                    "{}: expected {} runs, the summary has {runs}",
                    self.name,
                    self.sim_runs()
                ));
            }
            if violating {
                return Err(format!("{}: the oracle reported violating runs", self.name));
            }
        } else {
            let trace = pass
                .artifact("trace.jsonl")
                .expect("trace-query writes a trace");
            if !pass.lossless() {
                return Err("trace-query: `tq reexport` is not byte-identical to the trace".into());
            }
            let chain = self.stdout_of(ctx, "chain.txt")?;
            if !chain
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("chain complete"))
            {
                return Err("trace-query: the causal chain did not complete".into());
            }
            let phases = self.stdout_of(ctx, "phases.txt")?;
            let max_of = |label: &str| {
                phases
                    .lines()
                    .find(|l| l.starts_with(label))
                    .and_then(|l| l.split_whitespace().find_map(|w| w.strip_prefix("max=")))
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("trace-query: `tq phases` has no `{label}` line"))
            };
            facts.detection_bt_max = max_of("detection:")?;
            facts.view_change_bt_max = max_of("view-change:")?;
            facts.events = trace.lines;
            facts.trace_bytes = trace.bytes;
        }
        if facts.events == 0 || facts.detection_bt_max == 0 || facts.view_change_bt_max == 0 {
            return Err(format!("{}: a run without events or detections", self.name));
        }
        Ok(facts)
    }
}

/// Pinned artifacts for the default seed: `expected/digests.txt`,
/// lines `workload artifact digest-hex bytes`.
pub fn parse_pinned(text: &str, workload: &str) -> Vec<(String, u64, u64)> {
    text.lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            (f.next()? == workload).then_some(())?;
            Some((
                f.next()?.to_string(),
                u64::from_str_radix(f.next()?, 16).ok()?,
                f.next()?.parse().ok()?,
            ))
        })
        .collect()
}

/// The lines [`parse_pinned`] reads back.
pub fn render_pinned(workload: &str, artifacts: &[Artifact]) -> String {
    artifacts
        .iter()
        .map(|a| format!("{workload} {} {:016x} {}\n", a.name, a.digest, a.bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        fnv1a(FNV_OFFSET, bytes)
    }

    #[test]
    fn digest_is_fnv1a_and_stable() {
        // Published FNV-1a test vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }

    #[test]
    fn files_digest_in_chunks_to_the_same_value() {
        // Longer than one chunk, so the state carries across reads.
        let text: String = (0..20_000).map(|i| format!("line {i}\n")).collect();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("digest-test.txt");
        std::fs::write(&path, &text).unwrap();
        let artifact = digest_file("t", &path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.len() > 64 * 1024);
        assert_eq!(artifact.digest, digest(text.as_bytes()));
        assert_eq!(
            (artifact.bytes, artifact.lines),
            (text.len() as u64, 20_000)
        );
        assert!(digest_file("t", &path).is_err());
    }

    #[test]
    fn seed_shifts_every_generated_range() {
        assert!(matrix_spec("m", 0, 32).contains("\nseeds 0..32\n"));
        assert!(matrix_spec("m", 3, 32).contains("\nseeds 3000..3032\n"));
        assert!(federation_spec("f", 2, 4).contains("\nseeds 2000..2001\n"));
        assert!(federation_spec("f", 2, 1).contains("\nsegments 1\n"));
        assert_eq!(capture_flags(5).last().unwrap(), "5000");
    }

    #[test]
    fn generated_specs_parse_to_the_stated_sizes() {
        let spec = canely_campaign::CampaignSpec::parse(&matrix_spec("m", 1, 32)).unwrap();
        assert_eq!(
            spec.run_count() as u64,
            Workload::by_name("matrix-small").unwrap().sim_runs()
        );
        let spec = canely_campaign::CampaignSpec::parse(&federation_spec("f", 1, 4)).unwrap();
        assert_eq!(
            spec.run_count() as u64,
            Workload::by_name("fed-4x32").unwrap().sim_runs()
        );
    }

    #[test]
    fn pinned_digests_round_trip() {
        let artifacts = vec![
            Artifact {
                name: "summary.json",
                digest: 0xdead_beef,
                bytes: 42,
                lines: 1,
            },
            Artifact {
                name: "chain.txt",
                digest: 7,
                bytes: 9,
                lines: 2,
            },
        ];
        let text = format!("{}other x 1 1\n", render_pinned("w", &artifacts));
        assert_eq!(
            parse_pinned(&text, "w"),
            vec![
                ("summary.json".to_string(), 0xdead_beef, 42),
                ("chain.txt".to_string(), 7, 9)
            ]
        );
        assert!(parse_pinned(&text, "absent").is_empty());
    }
}
