//! Lost-waiter regression test for the shared-memory world barrier.
//!
//! With rank threads multiplexed onto fewer worker permits, every barrier
//! waiter takes the slow path (register under the waiter lock, then park).
//! The releaser must hold that lock while it advances the generation:
//! otherwise a member that sees the new generation can re-enter, register
//! for the *next* barrier, and be drained (and so never woken again) by
//! the *old* releaser. Thousands of back-to-back barriers on a
//! multiplexed world hit that window quickly; a watchdog turns the hang
//! into a failure.

use pumi_pcu::{execute_opts, MachineModel, WorldOpts};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn multiplexed_barriers_never_lose_a_waiter() {
    const ROUNDS: usize = 20;
    const BARRIERS: usize = 5_000;
    let (done, finished) = mpsc::channel();
    let worlds = std::thread::spawn(move || {
        for round in 0..ROUNDS {
            execute_opts(
                MachineModel::flat(4),
                WorldOpts::default().workers(2),
                |c| {
                    for _ in 0..BARRIERS {
                        c.barrier();
                    }
                },
            );
            done.send(round).expect("watchdog is listening");
        }
    });
    for round in 0..ROUNDS {
        let got = finished
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("barrier round {round} hung: a waiter was lost ({e})"));
        assert_eq!(got, round);
    }
    worlds.join().expect("barrier worlds panicked");
}
