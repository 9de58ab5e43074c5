//! The multi-process transport: node slices held by shard worker
//! processes, driven over TCP.
//!
//! [`ShardSlices`] owns no amplitudes — the workers hold the slices — and
//! makes no decision: the shared [`tqsim_cluster::Distributed`] core owns
//! the layout, the counters, the pricing and the rank-ordered folds, and
//! drives the verbs below. Each verb becomes one control message per
//! worker, and the worker runs the matching [`tqsim_cluster::slices`]
//! function, so this backend and the in-process one agree bit for bit;
//! only `measured_exchange_seconds` differs, because here it times real
//! TCP round-trips.

use crate::cluster::{ClusterLink, ShardCluster};
use std::io;
use std::sync::{Arc, MutexGuard};
use tqsim_circuit::math::C64;
use tqsim_cluster::slices::Cursor;
use tqsim_cluster::{Distributed, DistributedBackend, Link, LinkMut, Spawn, Transport};
use tqsim_json::{num, num_u64, obj, str_val, Value};
use tqsim_statevec::FusedOp;

/// A pure state sliced across shard worker **processes**.
pub type ShardedStateVector = Distributed<ShardSlices>;

/// A pooled-execution backend whose states are sliced across shard worker
/// **processes** (spawned with [`DistributedBackend::spawn`]).
pub type ShardBackend = DistributedBackend<ShardSlices>;

/// One state's slices on a live [`ShardCluster`], named by a
/// coordinator-wide slice id. Dropping it frees the slices.
pub struct ShardSlices {
    cluster: Arc<ShardCluster>,
    sid: u64,
}

/// One acquisition of the cluster transport on behalf of one state: every
/// verb sent through it reaches the workers as one uninterrupted sequence.
pub struct ShardLink<'a> {
    link: MutexGuard<'a, ClusterLink>,
    sid: u64,
}

fn verb(name: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut all = vec![("v", str_val(name))];
    all.extend(fields);
    obj(all)
}

fn complex_pair(a: C64, b: C64) -> Value {
    crate::proto::c64s_to_value([&a, &b])
}

/// Read a numeric field of a worker reply.
fn reply_f64(reply: &Value, key: &str) -> f64 {
    reply
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("shard transport: malformed reply (no {key:?})"))
}

impl ShardLink<'_> {
    /// A verb on this state's slices.
    fn msg(&self, name: &str, mut fields: Vec<(&str, Value)>) -> Value {
        fields.insert(0, ("sid", num_u64(self.sid)));
        verb(name, fields)
    }

    fn request(&mut self, rank: usize, name: &str, fields: Vec<(&str, Value)>) -> Value {
        let msg = self.msg(name, fields);
        self.link.request(rank, &msg)
    }

    fn broadcast(&mut self, name: &str, fields: Vec<(&str, Value)>) {
        let msg = self.msg(name, fields);
        self.link.broadcast(&msg);
    }

    fn broadcast_ack(&mut self, name: &str, fields: Vec<(&str, Value)>) {
        let msg = self.msg(name, fields);
        self.link.broadcast_ack(&msg);
    }

    fn walk_verb(
        &mut self,
        rank: usize,
        name: &str,
        mut fields: Vec<(&str, Value)>,
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor) {
        fields.push(("us", Value::Arr(us.iter().map(|&u| num(u)).collect())));
        fields.push(("total", num_u64(total)));
        if let Some(at) = at {
            fields.push(("idx", num_u64(at.idx)));
            fields.push(("acc", num(at.acc)));
        }
        let reply = self.request(rank, name, fields);
        let out = reply
            .get("out")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("shard transport: malformed {name} reply"))
            .iter()
            .map(|v| {
                v.as_u64()
                    .unwrap_or_else(|| panic!("shard transport: malformed {name} outcome"))
            })
            .collect();
        let idx = reply
            .get("idx")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("shard transport: malformed {name} idx"));
        (
            out,
            Cursor {
                idx,
                acc: reply_f64(&reply, "acc"),
            },
        )
    }
}

impl Link for ShardLink<'_> {
    fn psum(&mut self, rank: usize) -> f64 {
        reply_f64(&self.request(rank, "psum", vec![]), "x")
    }

    fn msum(&mut self, rank: usize, q: u16, acc: f64) -> f64 {
        let fields = vec![("q", num_u64(q.into())), ("acc", num(acc))];
        reply_f64(&self.request(rank, "msum", fields), "x")
    }

    fn pick(&mut self, rank: usize, u: f64, acc: f64) -> Result<u64, f64> {
        let reply = self.request(rank, "pick", vec![("u", num(u)), ("acc", num(acc))]);
        reply
            .get("hit")
            .and_then(Value::as_u64)
            .ok_or_else(|| reply_f64(&reply, "x"))
    }

    fn walk(
        &mut self,
        rank: usize,
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor) {
        self.walk_verb(rank, "walk", vec![], us, at, total)
    }

    fn fetch(&mut self, rank: usize, out: &mut Vec<C64>) {
        out.extend(self.link.fetch(rank, self.sid));
    }
}

impl LinkMut for ShardLink<'_> {
    fn reset(&mut self) {
        self.broadcast("reset", vec![]);
    }

    fn apply(&mut self, window: &[FusedOp]) {
        self.broadcast("apply", vec![("w", crate::proto::window_to_value(window))]);
    }

    fn apply_rank(&mut self, rank: usize, window: &[FusedOp]) {
        let msg = self.msg("apply", vec![("w", crate::proto::window_to_value(window))]);
        self.link.send(rank, &msg);
    }

    fn antidiag(&mut self, q: u16, a01: C64, a10: C64) {
        let fields = vec![("q", num_u64(q.into())), ("a", complex_pair(a01, a10))];
        self.broadcast("antidiag", fields);
    }

    fn scale(&mut self, s: f64) {
        self.broadcast("scale", vec![("s", num(s))]);
    }

    fn dswap(&mut self, gb: u16, lq: u16) {
        let fields = vec![("gb", num_u64(gb.into())), ("lq", num_u64(lq.into()))];
        self.broadcast_ack("dswap", fields);
    }

    fn antidiag_global(&mut self, gb: u16, a01: C64, a10: C64) {
        let fields = vec![("gb", num_u64(gb.into())), ("a", complex_pair(a01, a10))];
        self.broadcast_ack("antidiag_g", fields);
    }

    fn fwalk(
        &mut self,
        rank: usize,
        window: &[FusedOp],
        us: &[f64],
        at: Option<Cursor>,
        total: u64,
    ) -> (Vec<u64>, Cursor) {
        let w = vec![("w", crate::proto::window_to_value(window))];
        self.walk_verb(rank, "fwalk", w, us, at, total)
    }
}

impl Transport for ShardSlices {
    type Group = Arc<ShardCluster>;
    type Link<'a> = ShardLink<'a>;
    type LinkMut<'a> = ShardLink<'a>;

    fn group_nodes(cluster: &Arc<ShardCluster>) -> usize {
        cluster.n_workers()
    }

    fn alloc(cluster: &Arc<ShardCluster>, slice_len: usize) -> Self {
        let sid = cluster.next_sid();
        cluster.link().broadcast_ack(&verb(
            "alloc",
            vec![("sid", num_u64(sid)), ("len", num_u64(slice_len as u64))],
        ));
        ShardSlices {
            cluster: Arc::clone(cluster),
            sid,
        }
    }

    fn link(&self) -> ShardLink<'_> {
        ShardLink {
            link: self.cluster.link(),
            sid: self.sid,
        }
    }

    fn link_mut(&mut self) -> ShardLink<'_> {
        self.link()
    }

    fn copy_apply(&mut self, src: &Self, window: &[FusedOp]) {
        assert!(
            Arc::ptr_eq(&self.cluster, &src.cluster),
            "states live on different shard clusters"
        );
        let mut fields = vec![("dst", num_u64(self.sid)), ("src", num_u64(src.sid))];
        let name = if window.is_empty() {
            "copy"
        } else {
            fields.push(("w", crate::proto::window_to_value(window)));
            "capply"
        };
        self.cluster.link().broadcast(&verb(name, fields));
    }
}

impl Spawn for ShardSlices {
    fn spawn(n_workers: usize) -> io::Result<Arc<ShardCluster>> {
        Ok(Arc::new(ShardCluster::spawn(n_workers)?))
    }
}

impl Drop for ShardSlices {
    fn drop(&mut self) {
        // Best-effort: freeing a slice on a dead/killed cluster is fine to
        // skip — the workers are gone with their memory.
        let free = verb("free", vec![("sid", num_u64(self.sid))]);
        let mut link = self.cluster.link_quiet();
        for rank in 0..self.cluster.n_workers() {
            let _ = link.try_send(rank, &free);
        }
    }
}
