//! The shard worker runtime: one OS process per simulated cluster node.
//!
//! A worker is deliberately *thin*. It owns the node's amplitude slices
//! (keyed by slice id) and dispatches each verb into the shared
//! [`tqsim_cluster::slices`] functions; every layout decision, counter,
//! RNG draw, noise branch and rank-ordered fold lives in the coordinator's
//! [`tqsim_cluster::Distributed`] core. The in-process transport calls the
//! same slice functions, so the two backends are bit-identical by
//! construction.
//!
//! Control arrives as line-delimited JSON on the coordinator socket (FIFO
//! per worker; the coordinator broadcasts under one lock so every worker
//! sees multi-node verbs in the same order). Amplitude halves move over a
//! lazily-established worker↔worker TCP mesh as length-prefixed binary
//! frames; for each pair the lower rank connects and sends first, the
//! higher rank accepts and receives first, so the pairwise exchanges can
//! never deadlock.

use crate::proto;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use tqsim_circuit::math::C64;
use tqsim_cluster::slices::{self, Cursor};
use tqsim_json::{num, num_u64, obj, Value};
use tqsim_statevec::FusedOp;

/// A cached mesh connection to one peer worker.
struct MeshConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

struct Worker {
    rank: usize,
    listener: TcpListener,
    peers: Vec<String>,
    mesh: HashMap<usize, MeshConn>,
    slices: HashMap<u64, Vec<C64>>,
    /// Outgoing exchange buffer, reused so exchanges allocate nothing.
    out: Vec<C64>,
}

fn wire_err(context: &str, message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{context}: {message}"))
}

fn need_u64(v: &Value, key: &str) -> io::Result<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| wire_err("shard verb", format!("missing numeric {key:?}")))
}

fn need_f64(v: &Value, key: &str) -> io::Result<f64> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| wire_err("shard verb", format!("missing numeric {key:?}")))
}

/// Run one worker process to completion: connect to `coordinator`, open
/// the mesh listener, handshake, and serve verbs until `bye` (or until the
/// coordinator vanishes, which is a normal shutdown for killed clusters).
///
/// # Errors
///
/// Transport or protocol errors other than the coordinator closing the
/// control socket.
pub fn run(coordinator: &str, rank: usize, n_workers: usize) -> io::Result<()> {
    let control = TcpStream::connect(coordinator)?;
    control.set_nodelay(true)?;
    let mut control_r = BufReader::new(control.try_clone()?);
    let mut control_w = BufWriter::new(control);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mesh_addr = listener.local_addr()?.to_string();
    proto::send_line(
        &mut control_w,
        &obj(vec![
            ("v", tqsim_json::str_val("hello")),
            ("rank", num_u64(rank as u64)),
            ("mesh", tqsim_json::str_val(&mesh_addr)),
        ]),
    )?;
    let topo = proto::recv_line(&mut control_r)?;
    if topo.get("v").and_then(Value::as_str) != Some("topo") {
        return Err(wire_err("handshake", "expected topo".into()));
    }
    let peers: Vec<String> = topo
        .get("peers")
        .and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if peers.len() != n_workers {
        return Err(wire_err("handshake", "peer list length mismatch".into()));
    }
    proto::send_line(&mut control_w, &proto::ack())?;

    let mut worker = Worker {
        rank,
        listener,
        peers,
        mesh: HashMap::new(),
        slices: HashMap::new(),
        out: Vec::new(),
    };
    loop {
        let msg = match proto::recv_line(&mut control_r) {
            Ok(msg) => msg,
            // The coordinator dropping the control socket (process exit,
            // cluster teardown without `bye`) is a normal shutdown.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        let verb = msg
            .get("v")
            .and_then(Value::as_str)
            .ok_or_else(|| wire_err("shard verb", "missing \"v\"".into()))?;
        if verb == "bye" {
            proto::send_line(&mut control_w, &proto::ack())?;
            return Ok(());
        }
        if let Some(reply) = worker.dispatch(verb, &msg, &mut control_w)? {
            proto::send_line(&mut control_w, &reply)?;
        }
    }
}

impl Worker {
    fn slice(&self, msg: &Value) -> io::Result<&Vec<C64>> {
        let sid = need_u64(msg, "sid")?;
        self.slices
            .get(&sid)
            .ok_or_else(|| wire_err("shard verb", format!("unknown slice {sid}")))
    }

    fn slice_mut(&mut self, msg: &Value) -> io::Result<&mut Vec<C64>> {
        let sid = need_u64(msg, "sid")?;
        self.slices
            .get_mut(&sid)
            .ok_or_else(|| wire_err("shard verb", format!("unknown slice {sid}")))
    }

    /// Handle one verb; `Some(reply)` is sent back on the control socket.
    fn dispatch(
        &mut self,
        verb: &str,
        msg: &Value,
        control_w: &mut BufWriter<TcpStream>,
    ) -> io::Result<Option<Value>> {
        let rank = self.rank;
        match verb {
            "ping" => Ok(Some(proto::ack())),
            "alloc" => {
                let sid = need_u64(msg, "sid")?;
                let len = need_u64(msg, "len")? as usize;
                self.slices.insert(sid, slices::zero(len, rank));
                Ok(Some(proto::ack()))
            }
            "reset" => {
                slices::reset(self.slice_mut(msg)?, rank);
                Ok(None)
            }
            "free" => {
                self.slices.remove(&need_u64(msg, "sid")?);
                Ok(None)
            }
            "copy" | "capply" => {
                // Parent→child copy, carrying the child's head window for
                // `capply`: both slices are borrowed in place, so the source
                // is read exactly once.
                let window = match verb {
                    "capply" => need_window(msg)?,
                    _ => Vec::new(),
                };
                let dst = need_u64(msg, "dst")?;
                let src = need_u64(msg, "src")?;
                if dst == src {
                    return Err(wire_err(verb, format!("slice {dst} copied onto itself")));
                }
                let [Some(to), Some(from)] = self.slices.get_disjoint_mut([&dst, &src]) else {
                    return Err(wire_err(verb, format!("unknown slice {dst} or {src}")));
                };
                slices::copy_apply(to, from, rank, &window);
                Ok(None)
            }
            "apply" => {
                let window = need_window(msg)?;
                slices::apply(self.slice_mut(msg)?, rank, &window);
                Ok(None)
            }
            "antidiag" => {
                let q = need_qubit(msg, "q")?;
                let a = need_pair(msg, "a")?;
                slices::antidiag(self.slice_mut(msg)?, q, a[0], a[1]);
                Ok(None)
            }
            "scale" => {
                let s = need_f64(msg, "s")?;
                slices::scale(self.slice_mut(msg)?, s);
                Ok(None)
            }
            "dswap" => {
                let gb = need_qubit(msg, "gb")?;
                let lq = need_qubit(msg, "lq")?;
                self.dswap(msg, gb, lq)?;
                Ok(Some(proto::ack()))
            }
            "antidiag_g" => {
                let gb = need_qubit(msg, "gb")?;
                let a = need_pair(msg, "a")?;
                self.antidiag_global(msg, gb, a[0], a[1])?;
                Ok(Some(proto::ack()))
            }
            "psum" => Ok(Some(reply_x(slices::psum(self.slice(msg)?)))),
            "msum" => {
                let q = need_qubit(msg, "q")?;
                let acc = need_f64(msg, "acc")?;
                Ok(Some(reply_x(slices::msum(self.slice(msg)?, q, acc))))
            }
            "pick" => {
                let u = need_f64(msg, "u")?;
                let acc = need_f64(msg, "acc")?;
                Ok(Some(match slices::pick(self.slice(msg)?, rank, u, acc) {
                    Ok(hit) => obj(vec![("hit", num_u64(hit))]),
                    Err(acc) => reply_x(acc),
                }))
            }
            "walk" => self.walk(msg),
            "fwalk" => {
                // Fused sampling link: finish the state with the trailing
                // window, then read |ψ|² in the same visit.
                let window = need_window(msg)?;
                slices::apply(self.slice_mut(msg)?, rank, &window);
                self.walk(msg)
            }
            "fetch" => {
                let slice = self.slice(msg)?;
                proto::send_line(control_w, &obj(vec![("len", num_u64(slice.len() as u64))]))?;
                proto::write_amps(control_w, slice)?;
                Ok(None)
            }
            other => Err(wire_err("shard verb", format!("unknown verb {other:?}"))),
        }
    }

    /// Batched sorted-CDF chain link: resolve the draws that land in this
    /// slice and hand the cursor on. Shared by "walk" and "fwalk".
    fn walk(&self, msg: &Value) -> io::Result<Option<Value>> {
        let us: Vec<f64> = msg
            .get("us")
            .and_then(Value::as_arr)
            .ok_or_else(|| wire_err("walk", "no us".into()))?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| wire_err("walk", "bad u".into())))
            .collect::<io::Result<_>>()?;
        let at = match msg.get("idx") {
            Some(_) => Some(Cursor {
                idx: need_u64(msg, "idx")?,
                acc: need_f64(msg, "acc")?,
            }),
            None => None,
        };
        let total = need_u64(msg, "total")?;
        let (out, cursor) = slices::walk(self.slice(msg)?, self.rank, &us, at, total);
        Ok(Some(obj(vec![
            ("out", Value::Arr(out.into_iter().map(num_u64).collect())),
            ("idx", num_u64(cursor.idx)),
            ("acc", num(cursor.acc)),
        ])))
    }

    /// Get (establishing if necessary) the mesh connection to `peer`. The
    /// lower rank dials; the higher rank accepts, identifying inbound
    /// connections by their hello line. Pairings are disjoint per exchange
    /// round, so accept-until-found cannot starve.
    fn mesh_with(&mut self, peer: usize) -> io::Result<&mut MeshConn> {
        if !self.mesh.contains_key(&peer) {
            if self.rank < peer {
                let stream = TcpStream::connect(&self.peers[peer])?;
                stream.set_nodelay(true)?;
                let mut writer = BufWriter::new(stream.try_clone()?);
                proto::send_line(&mut writer, &obj(vec![("rank", num_u64(self.rank as u64))]))?;
                self.mesh.insert(
                    peer,
                    MeshConn {
                        reader: BufReader::new(stream),
                        writer,
                    },
                );
            } else {
                loop {
                    let (stream, _) = self.listener.accept()?;
                    stream.set_nodelay(true)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let hello = proto::recv_line(&mut reader)?;
                    let from = need_u64(&hello, "rank")? as usize;
                    self.mesh.insert(
                        from,
                        MeshConn {
                            reader,
                            writer: BufWriter::new(stream),
                        },
                    );
                    if from == peer {
                        break;
                    }
                }
            }
        }
        Ok(self.mesh.get_mut(&peer).expect("just inserted"))
    }

    /// Send `out` to the partner across node bit `gb` and read its frame
    /// of the same length straight into `dst`. The lower rank sends
    /// first, the higher receives first, so a pair can never deadlock.
    fn trade<'a>(
        &mut self,
        gb: u16,
        out: &[C64],
        dst: impl IntoIterator<Item = &'a mut C64>,
    ) -> io::Result<()> {
        let partner = self.rank ^ (1usize << gb);
        let lower = self.rank < partner;
        let conn = self.mesh_with(partner)?;
        if lower {
            proto::write_amps(&mut conn.writer, out)?;
            proto::read_amps_into(&mut conn.reader, out.len(), dst)
        } else {
            proto::read_amps_into(&mut conn.reader, out.len(), dst)?;
            proto::write_amps(&mut conn.writer, out)
        }
    }

    /// Run `exchange` on the slice `msg` names and the reusable outgoing
    /// buffer, both taken out of `self` for the duration (so the mesh can
    /// be borrowed), and put them back whatever the outcome.
    fn with_slice(
        &mut self,
        msg: &Value,
        exchange: impl FnOnce(&mut Self, &mut Vec<C64>, &mut Vec<C64>) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut slice = std::mem::take(self.slice_mut(msg)?);
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        let outcome = exchange(self, &mut slice, &mut out);
        self.out = out;
        *self.slice_mut(msg)? = slice;
        outcome
    }

    /// One distributed swap: trade this node's [`slices::half`] with the
    /// partner's, in the index order the in-process swap uses.
    fn dswap(&mut self, msg: &Value, gb: u16, lq: u16) -> io::Result<()> {
        let upper = self.rank & (1usize << gb) == 0;
        self.with_slice(msg, |worker, slice, out| {
            slices::half(slice, lq, upper).for_each(|run| out.extend_from_slice(run));
            worker.trade(gb, out, slices::half(slice, lq, upper).flatten())
        })
    }

    /// One global antidiagonal combine: trade whole slices with the
    /// partner, then multiply the arrived amplitudes by `a01` on the lower
    /// rank and `a10` on the higher.
    fn antidiag_global(&mut self, msg: &Value, gb: u16, a01: C64, a10: C64) -> io::Result<()> {
        let d = if self.rank & (1usize << gb) == 0 {
            a01
        } else {
            a10
        };
        self.with_slice(msg, |worker, slice, out| {
            out.extend_from_slice(slice);
            worker.trade(gb, out, slice.iter_mut())?;
            slices::times(slice, d);
            Ok(())
        })
    }
}

fn reply_x(x: f64) -> Value {
    obj(vec![("x", num(x))])
}

fn need_qubit(v: &Value, key: &str) -> io::Result<u16> {
    u16::try_from(need_u64(v, key)?)
        .map_err(|_| wire_err("shard verb", format!("{key:?} out of range")))
}

/// Decode a `[re, im, re, im]` complex pair.
fn need_pair(v: &Value, key: &str) -> io::Result<Vec<C64>> {
    let cells = v
        .get(key)
        .ok_or_else(|| wire_err("shard verb", format!("missing {key:?}")))?;
    proto::c64s_from_value(cells, 2).map_err(|e| wire_err("shard verb", e))
}

/// Decode the fused window from the verb's `"w"` field.
fn need_window(msg: &Value) -> io::Result<Vec<FusedOp>> {
    proto::window_from_value(
        msg.get("w")
            .ok_or_else(|| wire_err("shard verb", "missing w".into()))?,
    )
    .map_err(|e| wire_err("window", e))
}
