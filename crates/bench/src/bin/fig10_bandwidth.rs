//! Regenerates **Fig. 10**: CAN bandwidth utilization by the site
//! membership protocols, as a function of the membership cycle period
//! `Tm`, under the paper's operating conditions (`n = 32`, `b = 8`,
//! `f = 4`, 1 Mbps).
//!
//! Four curves, as in the paper:
//!
//! * *no msh. changes* — explicit life-signs only;
//! * *f crash failures* — plus 4 crashes in the period of reference;
//! * *join/leave event* — plus a single join/leave settlement (c = 1);
//! * *multiple join/leave* — plus c = 20 requests.
//!
//! Both the **analytic** model (`canely-analysis`, the paper's
//! evaluation method) and the **simulator measurement** (this
//! reproduction's addition) are printed side by side.
//!
//! Run with `cargo run --release -p bench --bin fig10_bandwidth`.

use bench::{measure_baseline, measure_episode, pct, Fig10Setup};
use can_types::BitTime;
use canely_analysis::BandwidthModel;

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let model = BandwidthModel::paper_defaults();
    if csv {
        // Machine-readable series for external plotting.
        println!(
            "tm_ms,analytic_idle,analytic_crash,analytic_jl1,analytic_jl20,measured_idle,measured_crash,measured_jl1,measured_jl20"
        );
        for tm_ms in (30..=90).step_by(10) {
            let tm = BitTime::new(tm_ms * 1_000);
            let setup = Fig10Setup::paper(tm);
            println!(
                "{},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5},{:.5}",
                tm_ms,
                model.no_changes(tm),
                model.with_crashes(tm),
                model.with_join_leave(tm, 1),
                model.with_join_leave(tm, 20),
                measure_baseline(&setup, 8),
                measure_episode(&setup, 4, 0, 0).with_episode,
                measure_episode(&setup, 4, 1, 0).with_episode,
                measure_episode(&setup, 4, 10, 10).with_episode,
            );
        }
        return;
    }
    println!("Fig. 10 — CAN bandwidth utilization by the site membership protocols");
    println!("n = 32, b = 8, f = 4, j = 2, c = 20, 1 Mbps\n");
    println!(
        "{:>6} | {:^31} | {:^31}",
        "Tm", "analytic model (paper method)", "simulator measurement"
    );
    println!(
        "{:>6} | {:>7}{:>8}{:>8}{:>8} | {:>7}{:>8}{:>8}{:>8}",
        "(ms)", "idle", "crash", "j/l=1", "j/l=20", "idle", "crash", "j/l=1", "j/l=20"
    );
    println!("{}", "-".repeat(76));

    for tm_ms in (30..=90).step_by(10) {
        let tm = BitTime::new(tm_ms * 1_000);
        // Analytic curves.
        let a_idle = model.no_changes(tm);
        let a_crash = model.with_crashes(tm);
        let a_jl1 = model.with_join_leave(tm, 1);
        let a_jl20 = model.with_join_leave(tm, 20);

        // Measured curves (events accumulate, as in the paper's
        // conservative reading).
        let setup = Fig10Setup::paper(tm);
        let m_idle = measure_baseline(&setup, 8);
        let m_crash = measure_episode(&setup, 4, 0, 0).with_episode;
        let m_jl1 = measure_episode(&setup, 4, 1, 0).with_episode;
        let m_jl20 = measure_episode(&setup, 4, 10, 10).with_episode;

        println!(
            "{:>6} | {}{}{}{} | {}{}{}{}",
            tm_ms,
            pct(a_idle),
            pct(a_crash),
            pct(a_jl1),
            pct(a_jl20),
            pct(m_idle),
            pct(m_crash),
            pct(m_jl1),
            pct(m_jl20),
        );
    }

    println!();
    println!(
        "marginal cost per join/leave request at Tm = 30 ms: analytic {}",
        pct(model.marginal_request_cost(BitTime::new(30_000)))
    );
    println!("(paper footnote: \"each join/leave request contributes with an increase of ~0.4%\")");
}
