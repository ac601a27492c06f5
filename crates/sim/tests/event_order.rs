//! The fixed-delay lanes change where an event waits, never when or in
//! which order it is delivered. A random schedule of same-instant
//! sends, heap sends, fixed-delay sends and multi-core CPU chains must
//! deliver the same `(time, tag)` sequence, and process the same number
//! of events, whether the fixed-delay sends go through
//! [`Ctx::fixed_timer`] or through [`Ctx::timer`]. Debug builds also
//! check the engine's cached core-timer minimum against a full scan on
//! every pop, so these schedules exercise that invariant too.

use proptest::prelude::*;
use vread_sim::prelude::*;

/// Delays that produce ties between lanes, the heap and core timers.
const DELAYS_NS: [u64; 4] = [0, 7_000, 20_000, 20_000 + 1];

#[derive(Debug, Clone, Copy)]
enum Act {
    Now,
    After {
        delay: usize,
    },
    Fixed {
        delay: usize,
    },
    Chain {
        thread: usize,
        cycles: u64,
        hops: u8,
    },
}

/// One scripted step: an action, and how many further steps (at least
/// one) the delivery of its tag triggers, so every script runs to its
/// end.
#[derive(Debug, Clone, Copy)]
struct Step {
    act: Act,
    burst: u8,
}

struct Tag(u32);

#[derive(Default)]
struct Log(Vec<(u64, u32)>);

struct Player {
    script: Vec<Step>,
    next: usize,
    threads: Vec<ThreadId>,
    /// Route `Act::Fixed` through the fixed-delay lane.
    lanes: bool,
}

impl Player {
    fn play(&mut self, n: u8, ctx: &mut Ctx<'_>) {
        for _ in 0..n {
            let Some(&step) = self.script.get(self.next) else {
                return;
            };
            let tag = Tag(u32::try_from(self.next).expect("short script"));
            self.next += 1;
            let me = ctx.me();
            match step.act {
                Act::Now => ctx.send(me, tag),
                Act::After { delay } => {
                    ctx.timer(tag, SimDuration::from_nanos(DELAYS_NS[delay]));
                }
                Act::Fixed { delay } => {
                    let d = SimDuration::from_nanos(DELAYS_NS[delay]);
                    if self.lanes {
                        ctx.fixed_timer(tag, d);
                    } else {
                        ctx.timer(tag, d);
                    }
                }
                Act::Chain {
                    thread,
                    cycles,
                    hops,
                } => {
                    let n = self.threads.len();
                    let stages: Vec<Stage> = (0..usize::from(hops))
                        .map(|h| {
                            Stage::cpu(self.threads[(thread + h) % n], cycles, CpuCategory::Other)
                        })
                        .collect();
                    ctx.chain(stages, me, tag);
                }
            }
        }
    }
}

impl Actor for Player {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if msg.is::<Start>() {
            self.play(3, ctx);
        } else if let Ok(t) = downcast::<Tag>(msg) {
            let now = ctx.now().as_nanos();
            ctx.ext::<Log>().0.push((now, t.0));
            let burst = self.script[t.0 as usize].burst;
            self.play(burst, ctx);
        }
    }
}

fn step() -> impl Strategy<Value = Step> {
    let act = prop_oneof![
        Just(Act::Now),
        (0usize..4).prop_map(|delay| Act::After { delay }),
        (0usize..4).prop_map(|delay| Act::Fixed { delay }),
        (0usize..4).prop_map(|delay| Act::Fixed { delay }),
        (0usize..5, 1_000u64..60_000, 1u8..4).prop_map(|(thread, cycles, hops)| Act::Chain {
            thread,
            cycles,
            hops,
        }),
    ];
    (act, 1u8..3).prop_map(|(act, burst)| Step { act, burst })
}

/// Runs `script` on a host with `cores` cores and 5 threads; returns
/// the delivery log, the events processed and the final clock.
fn run(script: &[Step], cores: usize, lanes: bool) -> (Vec<(u64, u32)>, u64, u64) {
    let mut w = World::new(11);
    let h = w.add_host("h", cores, 2.0);
    let threads = (0..5).map(|i| w.add_thread(h, &format!("t{i}"))).collect();
    let p = w.add_actor(
        "player",
        Player {
            script: script.to_vec(),
            next: 0,
            threads,
            lanes,
        },
    );
    w.send_now(p, Start);
    w.run();
    assert_eq!(w.pending_events(), 0);
    let log = w.ext.remove::<Log>().unwrap_or_default().0;
    (log, w.events_processed(), w.now().as_nanos())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fixed_lane_delivers_like_send_after(
        script in proptest::collection::vec(step(), 1..120),
        cores in 1usize..4,
    ) {
        let heap = run(&script, cores, false);
        let lane = run(&script, cores, true);
        prop_assert_eq!(heap.0.len(), script.len(), "every step delivered once");
        prop_assert_eq!(&lane.0, &heap.0);
        prop_assert_eq!(lane.1, heap.1, "events_processed");
        prop_assert_eq!(lane.2, heap.2, "quiescence time");
    }
}
