//! Deterministic end-to-end tests of the line-protocol front end
//! (`ServerLoop` on simulated `Shards`) through the SimPoller harness in
//! `sim/`: the 1000-query overload transcript, the seeded schedule
//! explorer, and this front's run of the final-drain and
//! refuse-before-paying scenarios all three fronts share.

mod sim;

use pimdl::serve::codec::{ErrorKind, ServerMsg};
use pimdl::serve::Runtime;
use pimdl::tensor::rng::DataRng;
use sim::{Front, Kind, Run, Script};

const NUM_CONNS: usize = 8;
const NUM_QUERIES: usize = 1000;

/// Schedules per explorer pass: the default run, and the long one.
const CASES: u64 = 96;
const LONG_CASES: u64 = 2000;

/// Overload: arrivals 20x faster than single-request service, deadline 1.5
/// service times, a 12-deep queue, over 8 connections at t = 0. Early
/// arrivals complete; the backlog then rejects at the queue bound and
/// sheds on deadline. Payloads come from one seeded generator, so the
/// client-side oracle is fixed.
fn overload_1000(rt: &Runtime, rate: f64, s: &mut Script) {
    let w = rt.replica().workload();
    let conns: Vec<usize> = (0..NUM_CONNS).map(|_| s.connect(0.0)).collect();
    let mut rng = DataRng::new(20240207);
    let mut t = 0.0f64;
    for k in 0..NUM_QUERIES {
        let u = f64::from(rng.uniform(1e-7, 1.0));
        t += -u.ln() / rate;
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        s.query(t, conns[k % NUM_CONNS], &format!("q{k}"), None, &indices);
    }
    for c in conns {
        s.close(t + 1.0, c);
    }
}

/// The overload transcript, run once, or twice and compared.
fn run_overload(drive: sim::Driver) -> Run {
    let t1 = sim::runtime(12, f64::INFINITY)
        .service_model()
        .batch_service_s(1)
        .unwrap();
    let rt = sim::runtime(12, 1.5 * t1);
    let script = |s: &mut Script| overload_1000(&rt, 20.0 / t1, s);
    drive(&rt, &Front::Line, &script)
}

#[test]
fn scripted_1000_requests_conserve_and_verify() {
    let run = run_overload(sim::run);
    let snap = &run.snapshot;
    let (mut completed, mut rejected, mut deadline) = (0, 0, 0);
    for msg in run
        .outputs
        .iter()
        .flat_map(|out| sim::lines(out).into_values())
    {
        match msg {
            ServerMsg::Result { .. } => completed += 1,
            ServerMsg::Error { kind, tag } => match kind {
                ErrorKind::Rejected => rejected += 1,
                ErrorKind::Deadline => deadline += 1,
                _ => panic!("tag {tag}: unexpected refusal {kind:?}"),
            },
        }
    }
    assert_eq!(completed + rejected + deadline, NUM_QUERIES);
    assert!(completed > 0, "some requests must be served");
    assert!(rejected > 0, "overload must overflow the 12-deep queue");
    assert!(deadline > 0, "overload must shed on the tight deadline");

    // Ledger <-> metrics consistency, counted from the wire responses.
    assert_eq!(snap.submitted as usize, NUM_QUERIES);
    assert_eq!(snap.completed as usize, completed);
    assert_eq!(snap.rejected as usize, rejected);
    assert_eq!(snap.deadline_exceeded as usize, deadline);

    // The reactor invariant: no spurious wakeups, and both shards
    // participated.
    assert_eq!(snap.reactor.spurious_wakeups, 0);
    assert!(
        run.dispatches.iter().all(|&d| d > 0),
        "both shards took work"
    );
    assert_eq!(run.dispatches.iter().sum::<u64>(), snap.batches);

    // The simulated transport accounted its I/O.
    assert_eq!(snap.reactor.accepts as usize, NUM_CONNS);
    assert!(snap.reactor.reads >= snap.batches);
    assert!(snap.reactor.writes > 0);
    assert_eq!(snap.reactor.mean_wake_latency_s, 0.0);
    sim::pin("line overload", &[&run], 0x71A3_5B5B_EC1B_F1F9);
}

#[test]
fn two_consecutive_runs_are_bit_identical() {
    sim::pin(
        "line overload",
        &[&run_overload(sim::replay)],
        0x71A3_5B5B_EC1B_F1F9,
    );
}

#[test]
fn final_drain_and_accept_errors_reach_the_snapshot() {
    sim::final_drain(Front::Line, 0x75A4_9620_0E0B_3450);
}

#[test]
fn rejected_requests_cost_no_reference_gather() {
    sim::refuse_before_paying(Front::Line, 0xCBF5_8008_AA3D_5015);
}

#[test]
fn blank_lines_are_skipped() {
    sim::blank_lines(Front::Line, 0x2E27_18F4_1734_7300);
}

#[test]
fn explored_line_schedules_terminate_exactly_once() {
    sim::explore(Kind::Line, CASES, 0x2EF0_28F8_709F_6FFF);
}

#[test]
#[ignore = "long explorer pass, run by scripts/check.sh"]
fn explored_line_schedules_long() {
    sim::explore(Kind::Line, LONG_CASES, 0xB47F_7A17_5F79_D9AB);
}
