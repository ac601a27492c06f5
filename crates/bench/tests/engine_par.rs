//! Worker-count invariance end to end: a partitioned multi-host fan-out
//! must render every byte of its per-component reports identically no
//! matter how many workers drive the components.

use vread_bench::run_fanout_bench;

/// The multi-host fan-out splits into per-host components; the rendered
/// per-component reports must be identical at any worker count.
#[test]
fn partitioned_fanout_is_worker_count_invariant() {
    let (seq, seq_events) = run_fanout_bench(4, 1);
    let (par, par_events) = run_fanout_bench(4, 4);
    assert_eq!(seq, par, "component report bytes diverged");
    assert_eq!(seq_events, par_events);
    assert_eq!(seq.len(), 4, "one component per host");
}
