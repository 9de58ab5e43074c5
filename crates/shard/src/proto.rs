//! Wire protocol shared by the shard coordinator and its worker processes.
//!
//! Two planes, two encodings:
//!
//! * **Control plane** — one line-delimited JSON object per verb, built on
//!   the shared [`tqsim_json`] codec (the exact idiom of `tqsim-service`'s
//!   wire module). Every message is an object with a `"v"` verb field;
//!   *silent* verbs (local kernel applications) get no reply so the
//!   coordinator can pipeline them, *acked* verbs (anything involving the
//!   worker mesh, allocation, shutdown) reply `{"ok":true}`, and *queries*
//!   reply a result object.
//! * **Data plane** — length-prefixed little-endian binary frames of
//!   complex amplitudes: an 8-byte LE byte count followed by `f64` re/im
//!   pairs. Used on the worker↔worker mesh for distributed-swap halves and
//!   on the control socket for bulk slice fetches.
//!
//! Floating-point values on the JSON plane round-trip exactly: the writer
//! emits the shortest decimal that parses back to the same bits, which is
//! what lets the multi-process backend stay bit-identical to the
//! in-process one.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use tqsim_circuit::math::{c64, Mat16, Mat2, Mat32, Mat4, Mat8, C64};
use tqsim_circuit::{Gate, GateKind};
use tqsim_json::{num, num_u64, obj, str_val, Value};
use tqsim_statevec::{DiagRun, FusedOp};

// ------------------------------------------------------------ line plane

/// Write one control message: `value` as a single JSON line, flushed.
///
/// # Errors
///
/// Propagates transport errors.
pub fn send_line<W: Write>(w: &mut W, value: &Value) -> io::Result<()> {
    let mut text = value.to_json();
    text.push('\n');
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Read one control message (a JSON line). EOF before a full line is an
/// [`io::ErrorKind::UnexpectedEof`] — a peer vanished mid-protocol.
///
/// # Errors
///
/// Transport errors, EOF, or a malformed JSON line
/// ([`io::ErrorKind::InvalidData`]).
pub fn recv_line<R: BufRead>(r: &mut R) -> io::Result<Value> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "shard peer closed the connection",
        ));
    }
    tqsim_json::parse(line.trim_end()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed shard control line: {e}"),
        )
    })
}

/// The canonical `{"ok":true}` acknowledgement.
pub fn ack() -> Value {
    obj(vec![("ok", Value::Bool(true))])
}

// ---------------------------------------------------------- binary plane

thread_local! {
    /// Encoded-frame scratch, reused so moving a frame allocates nothing
    /// once warm and crosses the socket in one call.
    static FRAME: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Write `amps` as one length-prefixed binary frame (8-byte LE byte
/// count, then `f64` LE re/im pairs).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_amps<W: Write>(w: &mut W, amps: &[C64]) -> io::Result<()> {
    FRAME.with_borrow_mut(|buf| {
        buf.clear();
        buf.extend_from_slice(&((amps.len() * 16) as u64).to_le_bytes());
        for a in amps {
            buf.extend_from_slice(&a.re.to_le_bytes());
            buf.extend_from_slice(&a.im.to_le_bytes());
        }
        w.write_all(buf)?;
        w.flush()
    })
}

/// Read one binary amplitude frame written by [`write_amps`].
///
/// # Errors
///
/// Transport errors, or a frame whose byte count is not a multiple of 16.
pub fn read_amps<R: Read>(r: &mut R) -> io::Result<Vec<C64>> {
    let len = read_frame_len(r)?;
    let mut amps = vec![c64(0.0, 0.0); len];
    read_frame_body(r, len, amps.iter_mut())?;
    Ok(amps)
}

/// Read one frame of exactly `len` amplitudes written by [`write_amps`]
/// straight into `dst`, in order (e.g. the runs of a distributed-swap
/// half, flattened).
///
/// # Errors
///
/// Transport errors, or a frame of another length.
pub fn read_amps_into<'a, R: Read>(
    r: &mut R,
    len: usize,
    dst: impl IntoIterator<Item = &'a mut C64>,
) -> io::Result<()> {
    if read_frame_len(r)? != len {
        return Err(frame_error("amplitude frame length mismatch"));
    }
    read_frame_body(r, len, dst)
}

fn frame_error(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Read a frame header: the amplitude count.
fn read_frame_len<R: Read>(r: &mut R) -> io::Result<usize> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let bytes = u64::from_le_bytes(len) as usize;
    if !bytes.is_multiple_of(16) {
        return Err(frame_error(
            "amplitude frame length is not a multiple of 16",
        ));
    }
    Ok(bytes / 16)
}

/// Decode a frame body of `len` amplitudes into `dst`.
fn read_frame_body<'a, R: Read>(
    r: &mut R,
    len: usize,
    dst: impl IntoIterator<Item = &'a mut C64>,
) -> io::Result<()> {
    FRAME.with_borrow_mut(|buf| {
        buf.resize(16 * len, 0);
        r.read_exact(buf)?;
        let mut dst = dst.into_iter();
        for cell in buf.chunks_exact(16) {
            let slot = dst
                .next()
                .ok_or_else(|| frame_error("amplitude frame longer than its destination"))?;
            let re = f64::from_le_bytes(cell[..8].try_into().expect("8-byte half"));
            let im = f64::from_le_bytes(cell[8..].try_into().expect("8-byte half"));
            *slot = c64(re, im);
        }
        Ok(())
    })
}

// ------------------------------------------------------------ gate codec

/// Encode a gate as `[name, params…, qubits…]`.
pub fn gate_to_value(gate: &Gate) -> Value {
    let mut cells = vec![str_val(gate.kind().name())];
    cells.extend(gate.kind().params().into_iter().map(num));
    cells.extend(gate.qubits().iter().map(|&q| num_u64(u64::from(q))));
    Value::Arr(cells)
}

/// Decode a gate (see [`gate_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn gate_from_value(value: &Value) -> Result<Gate, String> {
    let parts = value.as_arr().ok_or("gate is not an array")?;
    let name = parts
        .first()
        .and_then(Value::as_str)
        .ok_or("gate lacks a name")?;
    let (n_params, arity) =
        GateKind::shape(name).ok_or_else(|| format!("unknown mnemonic {name:?}"))?;
    if parts.len() != 1 + n_params + arity {
        return Err(format!(
            "gate {name}: expected {n_params} params + {arity} qubits, got {} cells",
            parts.len() - 1
        ));
    }
    let params: Vec<f64> = parts[1..1 + n_params]
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| format!("gate {name}: bad param")))
        .collect::<Result<_, _>>()?;
    let qubits: Vec<u16> = parts[1 + n_params..]
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|q| u16::try_from(q).ok())
                .ok_or_else(|| format!("gate {name}: bad qubit"))
        })
        .collect::<Result<_, _>>()?;
    let kind = GateKind::from_name(name, &params).expect("shape-checked mnemonic");
    Ok(Gate::new(kind, &qubits))
}

// ---------------------------------------------------------- matrix codec

/// Encode complex values as a flat `[re, im, re, im, …]` array.
pub fn c64s_to_value<'a>(xs: impl IntoIterator<Item = &'a C64>) -> Value {
    let mut cells = Vec::new();
    for x in xs {
        cells.push(num(x.re));
        cells.push(num(x.im));
    }
    Value::Arr(cells)
}

/// Decode a flat `[re, im, …]` array of expected complex length `n`.
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn c64s_from_value(value: &Value, n: usize) -> Result<Vec<C64>, String> {
    let cells = value.as_arr().ok_or("complex list is not an array")?;
    if cells.len() != 2 * n {
        return Err(format!(
            "expected {n} complex values, got {} cells",
            cells.len()
        ));
    }
    cells
        .chunks_exact(2)
        .map(|p| match (p[0].as_f64(), p[1].as_f64()) {
            (Some(re), Some(im)) => Ok(c64(re, im)),
            _ => Err("non-numeric complex component".to_string()),
        })
        .collect()
}

/// Encode a dense `N×N` matrix as a row-major flat complex list.
pub fn mat_to_value<const N: usize>(rows: &[[C64; N]; N]) -> Value {
    c64s_to_value(rows.iter().flatten())
}

/// Decode a dense `N×N` matrix (see [`mat_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn mat_from_value<const N: usize>(value: &Value) -> Result<[[C64; N]; N], String> {
    let flat = c64s_from_value(value, N * N)?;
    let mut rows = [[c64(0.0, 0.0); N]; N];
    for (row, cells) in rows.iter_mut().zip(flat.chunks_exact(N)) {
        row.copy_from_slice(cells);
    }
    Ok(rows)
}

/// Encode a coalesced diagonal run as
/// `{"t1":[[q, re0, im0, re1, im1], …], "t2":[[qh, ql, re0 … im3], …]}`.
pub fn diag_run_to_value(run: &DiagRun) -> Value {
    let t1 = run
        .terms1()
        .iter()
        .map(|(q, d)| {
            let mut cells = vec![num_u64(u64::from(*q))];
            for x in d {
                cells.push(num(x.re));
                cells.push(num(x.im));
            }
            Value::Arr(cells)
        })
        .collect();
    let t2 = run
        .terms2()
        .iter()
        .map(|(qh, ql, d)| {
            let mut cells = vec![num_u64(u64::from(*qh)), num_u64(u64::from(*ql))];
            for x in d {
                cells.push(num(x.re));
                cells.push(num(x.im));
            }
            Value::Arr(cells)
        })
        .collect();
    obj(vec![("t1", Value::Arr(t1)), ("t2", Value::Arr(t2))])
}

/// Decode a diagonal run (see [`diag_run_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn diag_run_from_value(value: &Value) -> Result<DiagRun, String> {
    let q_of = |v: &Value| {
        v.as_u64()
            .and_then(|q| u16::try_from(q).ok())
            .ok_or("bad diag-run qubit".to_string())
    };
    let mut run = DiagRun::new();
    for term in value
        .get("t1")
        .and_then(Value::as_arr)
        .ok_or("diag run needs \"t1\"")?
    {
        let cells = term.as_arr().ok_or("bad t1 term")?;
        if cells.len() != 5 {
            return Err("bad t1 term length".to_string());
        }
        let d = c64s_from_value(&Value::Arr(cells[1..].to_vec()), 2)?;
        run.push1(q_of(&cells[0])?, [d[0], d[1]]);
    }
    for term in value
        .get("t2")
        .and_then(Value::as_arr)
        .ok_or("diag run needs \"t2\"")?
    {
        let cells = term.as_arr().ok_or("bad t2 term")?;
        if cells.len() != 10 {
            return Err("bad t2 term length".to_string());
        }
        let d = c64s_from_value(&Value::Arr(cells[2..].to_vec()), 4)?;
        run.push2(q_of(&cells[0])?, q_of(&cells[1])?, [d[0], d[1], d[2], d[3]]);
    }
    Ok(run)
}

// ---------------------------------------------------------- window codec

/// Encode a fused-op window (a plan head or tail, or a single op) as an
/// array of tagged op objects: `{"k":"g"}` gates, `{"k":"m"}` dense
/// matrices of any width (the qubit count picks the width), `{"k":"d"}`
/// diagonal runs. Pristine single-gate ops (`src` present) are sent as
/// their source gate so the worker replays them through the same
/// specialised kernel [`tqsim_statevec::apply_window_amps`] uses —
/// bit-identical application by construction.
pub fn window_to_value(window: &[FusedOp]) -> Value {
    let gate = |g: &Gate| obj(vec![("k", str_val("g")), ("g", gate_to_value(g))]);
    let dense = |qs: &[u16], m: Value| {
        let qs = qs.iter().map(|&q| num_u64(u64::from(q))).collect();
        obj(vec![("k", str_val("m")), ("qs", Value::Arr(qs)), ("m", m)])
    };
    let ops = window
        .iter()
        .map(|op| match op {
            FusedOp::Unitary1 { src: Some(g), .. }
            | FusedOp::Unitary2 { src: Some(g), .. }
            | FusedOp::Passthrough(g) => gate(g),
            FusedOp::Unitary1 { q, m, src: None } => dense(&[*q], mat_to_value(&m.0)),
            FusedOp::Unitary2 {
                q_hi,
                q_lo,
                m,
                src: None,
            } => dense(&[*q_hi, *q_lo], mat_to_value(&m.0)),
            FusedOp::Unitary3 { q2, q1, q0, m } => dense(&[*q2, *q1, *q0], mat_to_value(&m.0)),
            FusedOp::Unitary4 { qs, m } => dense(qs, mat_to_value(&m.0)),
            FusedOp::Unitary5 { qs, m } => dense(qs, mat_to_value(&m.0)),
            FusedOp::FusedDiag(run) => {
                obj(vec![("k", str_val("d")), ("r", diag_run_to_value(run))])
            }
        })
        .collect();
    Value::Arr(ops)
}

/// Decode a fused-op window (see [`window_to_value`]).
///
/// # Errors
///
/// A human-readable message for malformed input.
pub fn window_from_value(value: &Value) -> Result<Vec<FusedOp>, String> {
    value
        .as_arr()
        .ok_or("window is not an array")?
        .iter()
        .map(|op| {
            let field = |key: &str| op.get(key).ok_or(format!("window op: no {key}"));
            match op.get("k").and_then(Value::as_str) {
                Some("g") => Ok(FusedOp::Passthrough(gate_from_value(field("g")?)?)),
                Some("m") => dense_from_value(field("qs")?, field("m")?),
                Some("d") => Ok(FusedOp::FusedDiag(diag_run_from_value(field("r")?)?)),
                other => Err(format!("unknown window op kind {other:?}")),
            }
        })
        .collect()
}

/// Decode one dense window op; its qubit count picks the matrix width.
fn dense_from_value(qs: &Value, m: &Value) -> Result<FusedOp, String> {
    let qs: Vec<u16> = qs
        .as_arr()
        .ok_or("window op: qs is not an array")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|q| u16::try_from(q).ok())
                .ok_or("window op: bad qubit".to_string())
        })
        .collect::<Result<_, _>>()?;
    Ok(match qs[..] {
        [q] => FusedOp::Unitary1 {
            q,
            m: Mat2(mat_from_value(m)?),
            src: None,
        },
        [q_hi, q_lo] => FusedOp::Unitary2 {
            q_hi,
            q_lo,
            m: Mat4(mat_from_value(m)?),
            src: None,
        },
        [q2, q1, q0] => FusedOp::Unitary3 {
            q2,
            q1,
            q0,
            m: Box::new(Mat8(mat_from_value(m)?)),
        },
        [a, b, c, d] => FusedOp::Unitary4 {
            qs: [a, b, c, d],
            m: Box::new(Mat16(mat_from_value(m)?)),
        },
        [a, b, c, d, e] => FusedOp::Unitary5 {
            qs: [a, b, c, d, e],
            m: Box::new(Mat32(mat_from_value(m)?)),
        },
        _ => return Err(format!("window op: {} dense qubits", qs.len())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_round_trip_covers_the_mnemonic_table() {
        let gates = [
            Gate::new(GateKind::H, &[3]),
            Gate::new(GateKind::Rz(0.1234567891234), &[0]),
            Gate::new(GateKind::U3(0.1, -2.5, 3.75), &[2]),
            Gate::new(GateKind::Cx, &[5, 1]),
            Gate::new(GateKind::FSim(0.5, -0.25), &[4, 0]),
            Gate::new(GateKind::Ccx, &[2, 1, 0]),
        ];
        for g in &gates {
            let v = gate_to_value(g);
            let back = gate_from_value(&v).unwrap();
            assert_eq!(back.kind(), g.kind());
            assert_eq!(back.qubits(), g.qubits());
        }
    }

    #[test]
    fn dense_unitaries_round_trip_bit_exactly() {
        let m2 = GateKind::Sw.matrix1().unwrap();
        let v = mat_to_value(&m2.0);
        let text = v.to_json();
        let back: [[C64; 2]; 2] = mat_from_value(&tqsim_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m2.0, "shortest-round-trip floats must be exact");
        let m4 = GateKind::FSim(0.777, -1.3).matrix2().unwrap();
        let back4: Result<[[C64; 4]; 4], _> =
            mat_from_value(&tqsim_json::parse(&mat_to_value(&m4.0).to_json()).unwrap());
        assert_eq!(back4.unwrap(), m4.0);
    }

    #[test]
    fn diag_runs_round_trip() {
        let mut run = DiagRun::new();
        run.push1(3, GateKind::T.diag1().unwrap());
        run.push2(5, 1, GateKind::Cz.diag2().unwrap());
        let back =
            diag_run_from_value(&tqsim_json::parse(&diag_run_to_value(&run).to_json()).unwrap())
                .unwrap();
        assert_eq!(back.terms1(), run.terms1());
        assert_eq!(back.terms2(), run.terms2());
    }

    #[test]
    fn wide_matrices_and_windows_round_trip() {
        // Build genuinely wide matrices through the embed helpers so every
        // row carries non-trivial values.
        let m4 = GateKind::FSim(0.777, -1.3).matrix2().unwrap();
        let m16 = Mat16::from_mat4(&m4, 3, 1).mul(&Mat16::from_mat4(&m4, 2, 0));
        let back16: [[C64; 16]; 16] =
            mat_from_value(&tqsim_json::parse(&mat_to_value(&m16.0).to_json()).unwrap()).unwrap();
        assert_eq!(back16, m16.0, "mat16 must round-trip bit-exactly");
        let m32 = Mat32::from_mat16(&m16, [0, 2, 3, 4]);
        let back32: [[C64; 32]; 32] =
            mat_from_value(&tqsim_json::parse(&mat_to_value(&m32.0).to_json()).unwrap()).unwrap();
        assert_eq!(back32, m32.0, "mat32 must round-trip bit-exactly");

        let mut run = DiagRun::new();
        run.push1(2, GateKind::T.diag1().unwrap());
        let window = vec![
            FusedOp::Passthrough(Gate::new(GateKind::H, &[1])),
            FusedOp::Unitary1 {
                q: 0,
                m: GateKind::Sw.matrix1().unwrap(),
                src: None,
            },
            FusedOp::Unitary2 {
                q_hi: 3,
                q_lo: 1,
                m: m4,
                src: None,
            },
            FusedOp::Unitary3 {
                q2: 4,
                q1: 2,
                q0: 0,
                m: Box::new(Mat8::from_mat4(&m4, 2, 0).mul(&Mat8::from_mat4(&m4, 1, 0))),
            },
            FusedOp::Unitary4 {
                qs: [4, 3, 1, 0],
                m: Box::new(m16),
            },
            FusedOp::Unitary5 {
                qs: [5, 4, 3, 1, 0],
                m: Box::new(m32),
            },
            FusedOp::FusedDiag(run),
        ];
        let text = window_to_value(&window).to_json();
        let back = window_from_value(&tqsim_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.len(), window.len());
        // Application equivalence: the decoded window produces bit-identical
        // amplitudes on a slice.
        let mut a: Vec<C64> = (0..64).map(|i| c64(1.0 / (i as f64 + 1.0), 0.1)).collect();
        let mut b = a.clone();
        tqsim_statevec::apply_window_amps(&mut a, 64, &window);
        tqsim_statevec::apply_window_amps(&mut b, 64, &back);
        assert_eq!(a, b);
    }

    #[test]
    fn binary_frames_round_trip() {
        let amps = vec![c64(1.0, -2.0), c64(0.3333333333333333, f64::MIN_POSITIVE)];
        let mut buf = Vec::new();
        write_amps(&mut buf, &amps).unwrap();
        assert_eq!(buf.len(), 8 + 32);
        let back = read_amps(&mut &buf[..]).unwrap();
        assert_eq!(back, amps);
    }

    #[test]
    fn control_lines_round_trip() {
        let v = obj(vec![("v", str_val("dswap")), ("gb", num_u64(1))]);
        let mut buf = Vec::new();
        send_line(&mut buf, &v).unwrap();
        let back = recv_line(&mut &buf[..]).unwrap();
        assert_eq!(back.get("v").and_then(Value::as_str), Some("dswap"));
        assert_eq!(back.get("gb").and_then(Value::as_u64), Some(1));
    }
}
