//! Fixed engine shapes for the harness to time from outside: the message
//! ping-pong and the 5-stage CPU chain of the engine micro-benchmarks,
//! sized so one pass takes tens of milliseconds. They isolate the event
//! loop and the scheduler/chain machinery from everything a workload
//! adds. Each returns the events it processed.

use vread_sim::prelude::*;

struct PingPong {
    left: u32,
}

struct Ball;

impl Actor for PingPong {
    fn handle(&mut self, msg: BoxMsg, ctx: &mut Ctx<'_>) {
        if (msg.is::<Start>() || msg.is::<Ball>()) && self.left > 0 {
            self.left -= 1;
            let me = ctx.me();
            ctx.send(me, Ball);
        }
    }
}

struct Sink;

impl Actor for Sink {
    fn handle(&mut self, _msg: BoxMsg, _ctx: &mut Ctx<'_>) {}
}

struct Fin;

/// One actor bouncing 1 M messages to itself.
pub fn pingpong() -> u64 {
    let mut w = World::new(1);
    let a = w.add_actor("a", PingPong { left: 1_000_000 });
    w.send_now(a, Start);
    w.run();
    w.events_processed()
}

/// 20 000 five-stage CPU chains on 5 threads sharing a 4-core host.
pub fn chain() -> u64 {
    let mut w = World::new(1);
    let h = w.add_host("h", 4, 2.0);
    let ts: Vec<ThreadId> = (0..5).map(|i| w.add_thread(h, &format!("t{i}"))).collect();
    let sink = w.add_actor("sink", Sink);
    for _ in 0..20_000 {
        let st: Vec<Stage> = ts
            .iter()
            .map(|&t| Stage::cpu(t, 10_000, CpuCategory::Other))
            .collect();
        w.start_chain(st, sink, Fin);
    }
    w.run();
    w.events_processed()
}
