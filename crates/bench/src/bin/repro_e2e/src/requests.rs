//! The closed-loop request driver: `C` threads, each owning one blocking
//! `ClusterClassProvider`, each sending its next request only when the
//! previous reply has been verified.

use std::time::Instant;

use dvm_classfile::ClassFile;
use dvm_cluster::ClusterClassProvider;

use crate::corpus::class_of;
use crate::drive::{drive, Driven};
use crate::site::Site;
use crate::stats::fnv1a;

/// Something a client can ask the cluster for, and the class the reply
/// must turn out to hold.
#[derive(Debug, Clone)]
pub struct Target {
    /// `class://<name>` or `ir://<md5 of the served class>`.
    pub url: String,
    pub class: String,
}

impl Target {
    pub fn class(url: &str) -> Target {
        Target {
            url: url.to_owned(),
            class: class_of(url).to_owned(),
        }
    }

    fn is_ir(&self) -> bool {
        self.url.starts_with(dvm_proxy::IR_SCHEME)
    }

    /// Whether `payload` (signature already verified and removed by the
    /// provider) parses and holds the class this target names.
    pub fn names(&self, payload: &[u8]) -> bool {
        if self.is_ir() {
            dvm_exec::decode(payload).is_ok_and(|ir| ir.class == self.class)
        } else {
            ClassFile::parse(payload).is_ok_and(|cf| cf.name().is_ok_and(|n| n == self.class))
        }
    }
}

/// What one op left behind. A failed op (error, refusal) has no latency.
#[derive(Debug)]
pub struct Outcome {
    pub target: u32,
    pub latency_ns: Option<u64>,
    /// FNV-1a of the verified payload, taken in the loop; compared
    /// against the first bytes seen for the URL after the timed section.
    pub hash: u64,
    /// The payload itself, kept only when the round asks for it.
    pub payload: Option<Vec<u8>>,
}

/// Runs one round: thread `t` issues `plan[t]` in order on
/// `providers[t]`. With `trace_epoch`, each op and the calls inside it
/// are recorded as spans. Returns every op's outcome, thread by thread.
pub fn run_round(
    providers: &mut [ClusterClassProvider],
    targets: &[Target],
    plan: &[Vec<u32>],
    keep_payloads: bool,
    trace_epoch: Option<Instant>,
    round_no: u64,
) -> Driven<Vec<Outcome>> {
    assert_eq!(providers.len(), plan.len());
    let states: Vec<_> = providers.iter_mut().zip(plan).collect();
    drive(states, trace_epoch, |t, (provider, ops), mut tracer| {
        let mut outcomes = Vec::with_capacity(ops.len());
        for (i, &target) in ops.iter().enumerate() {
            let t0 = Instant::now();
            let reply = provider.fetch(&targets[target as usize].url);
            let t1 = Instant::now();
            outcomes.push(match reply {
                Ok((payload, _)) => Outcome {
                    target,
                    latency_ns: Some((t1 - t0).as_nanos() as u64),
                    hash: fnv1a(&payload),
                    payload: keep_payloads.then_some(payload),
                },
                Err(_) => Outcome {
                    target,
                    latency_ns: None,
                    hash: 0,
                    payload: None,
                },
            });
            if let Some(tr) = &mut tracer {
                let op = round_no << 40 | (t as u64) << 32 | i as u64;
                let t2 = Instant::now();
                let root = tr.record(op, None, "op", t0, t2);
                tr.record(op, Some(root), "cluster.fetch", t0, t1);
                tr.record(op, Some(root), "harness.check", t1, t2);
            }
        }
        outcomes
    })
}

/// Deals `ops` to `threads` plans round-robin, keeping their order.
pub fn deal(ops: &[u32], threads: usize) -> Vec<Vec<u32>> {
    let mut plan = vec![Vec::with_capacity(ops.len() / threads + 1); threads];
    for (i, &op) in ops.iter().enumerate() {
        plan[i % threads].push(op);
    }
    plan
}

/// One provider per driver thread.
pub fn providers(site: &Site, threads: usize, tag: &str) -> Vec<ClusterClassProvider> {
    (0..threads)
        .map(|t| site.provider(&format!("{tag}-{t}")))
        .collect()
}

pub fn close(providers: &mut [ClusterClassProvider]) {
    for p in providers {
        p.close();
    }
}

/// First requests for `urls` (untimed population): fetches every class
/// and, as a client with an execution tier would, the IR package keyed
/// by the bytes it was served. Returns the class targets followed by
/// the IR targets that exist (a class with no compilable method has
/// none), or the first URL that failed.
pub fn populate(site: &Site, urls: &[String], threads: usize) -> Result<Vec<Target>, String> {
    let mut providers = providers(site, threads, "populate");
    let ir_keys: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = providers
            .iter_mut()
            .enumerate()
            .map(|(t, provider)| {
                s.spawn(move || {
                    let mut keys = Vec::new();
                    for (i, url) in urls.iter().enumerate().skip(t).step_by(threads) {
                        let (_, transfer) = provider
                            .fetch(url)
                            .map_err(|e| format!("populating {url}: {e}"))?;
                        let key = transfer.ir_key.expect("class fetches carry an IR key");
                        if provider.fetch(&key).is_ok() {
                            keys.push((i, key));
                        }
                    }
                    provider.close();
                    Ok(keys)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("populating thread panicked"))
            .collect()
    });
    let mut keys = Vec::new();
    for k in ir_keys {
        keys.extend(k?);
    }
    keys.sort();
    let mut targets: Vec<Target> = urls.iter().map(|u| Target::class(u)).collect();
    targets.extend(keys.into_iter().map(|(i, key)| Target {
        url: key,
        class: class_of(&urls[i]).to_owned(),
    }));
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deal_is_round_robin_and_order_preserving() {
        let plan = deal(&[10, 11, 12, 13, 14], 2);
        assert_eq!(plan, vec![vec![10, 12, 14], vec![11, 13]]);
    }
}
