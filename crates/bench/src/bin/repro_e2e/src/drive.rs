//! The closed-loop skeleton every round shares: `C` driver threads
//! released together, timed from the first release to the last finish,
//! with process CPU time read around the same interval.

use std::sync::Barrier;
use std::time::Instant;

use crate::sys;
use crate::trace::Tracer;

#[derive(Debug)]
pub struct Driven<T> {
    /// First thread released to last thread done.
    pub wall_s: f64,
    /// Process CPU time (user + system) over the same interval.
    pub cpu_us: u64,
    /// What each thread's body returned, in thread order.
    pub results: Vec<T>,
    /// Every thread's spans merged, when the round was traced.
    pub tracer: Option<Tracer>,
}

/// Runs `body(t, states[t], tracer)` on one thread per state. With
/// `trace_epoch`, each thread gets a `Tracer` to record spans into.
pub fn drive<S: Send, T: Send>(
    states: Vec<S>,
    trace_epoch: Option<Instant>,
    body: impl Fn(usize, S, Option<&mut Tracer>) -> T + Sync,
) -> Driven<T> {
    let barrier = Barrier::new(states.len() + 1);
    let (finished, cpu_us) = std::thread::scope(|s| {
        let workers: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(t, state)| {
                let (barrier, body) = (&barrier, &body);
                s.spawn(move || {
                    let mut tracer = trace_epoch.map(Tracer::new);
                    barrier.wait();
                    let started = Instant::now();
                    let result = body(t, state, tracer.as_mut());
                    (started, Instant::now(), result, tracer)
                })
            })
            .collect();
        let before = sys::usage().cpu_us;
        barrier.wait();
        let finished: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("driver thread panicked"))
            .collect();
        (finished, sys::usage().cpu_us - before)
    });
    let started = finished
        .iter()
        .map(|f| f.0)
        .min()
        .expect("at least one thread");
    let ended = finished
        .iter()
        .map(|f| f.1)
        .max()
        .expect("at least one thread");
    let mut tracer = trace_epoch.map(Tracer::new);
    let mut results = Vec::with_capacity(finished.len());
    for (_, _, result, spans) in finished {
        results.push(result);
        if let (Some(all), Some(spans)) = (&mut tracer, spans) {
            all.absorb(spans);
        }
    }
    Driven {
        wall_s: (ended - started).as_secs_f64(),
        cpu_us,
        results,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_runs_every_state_and_merges_spans() {
        let epoch = Instant::now();
        let driven = drive(vec![10u32, 20], Some(epoch), |t, state, tracer| {
            let now = Instant::now();
            tracer
                .expect("traced")
                .record(t as u64, None, "op", now, now);
            state + t as u32
        });
        assert_eq!(driven.results, vec![10, 21]);
        assert_eq!(driven.tracer.expect("traced").spans().len(), 2);
        assert!(driven.wall_s >= 0.0);
        assert!(drive(vec![()], None, |_, (), tracer| tracer.is_none()).results[0]);
    }
}
