//! The versioned binary codec behind the disk cache tier.
//!
//! [`EngineOutput`] values are serialized to a compact little-endian byte
//! stream so compilation results survive process restarts. The format is
//! deliberately boring and fully in-tree (the build is offline — no serde):
//!
//! ```text
//! magic   b"TEOC"                      4 bytes
//! version u16                          (currently 2)
//! payload compiler, circuit, stats, layout, stages (see below)
//! check   u64 FNV-1a of everything above
//! ```
//!
//! The payload encodes, in order: the compiler name (length-prefixed
//! UTF-8), the circuit (register width, gate count, then one opcode byte
//! plus operands per gate, with `Rz` carrying its IEEE-754 angle), every
//! [`CompileStats`] field, the optional final [`Layout`] as a
//! logical→physical assignment, and (new in version 2) an optional
//! per-stage compile-time breakdown ([`StageTimings`]) as a count-prefixed
//! run of f64 seconds in [`tetris_obs::trace::Stage::ALL`] order — flagged
//! absent when nothing was recorded, so observability-off streams carry
//! one extra byte.
//!
//! Decoding is *total*: any truncated, bit-flipped or foreign file yields a
//! [`CodecError`], never a panic — the disk tier turns every error into a
//! cache miss. The trailing checksum catches garbling that would otherwise
//! decode into a plausible-but-wrong circuit; structural validation
//! (opcodes, operand ranges, layout bijectivity) catches version-1 streams
//! that were damaged in ways the checksum cannot see (it can — but belt and
//! suspenders keeps the loader panic-free even against adversarial files).

use crate::backend::EngineOutput;
use tetris_circuit::{Circuit, Gate, Metrics};
use tetris_core::CompileStats;
use tetris_obs::trace::N_STAGES;
use tetris_obs::StageTimings;
use tetris_pauli::fingerprint::Fingerprint64;
use tetris_topology::Layout;

/// File magic: **T**etris **E**ngine **O**utput **C**odec.
pub const MAGIC: [u8; 4] = *b"TEOC";

/// Current stream version. Bump on any layout change; old files then
/// decode to [`CodecError::UnsupportedVersion`] and are recompiled.
/// Version 2 added the optional stage-timing section.
pub const VERSION: u16 = 2;

/// Why a byte stream failed to decode. All variants are recoverable: the
/// disk tier treats every one as a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the announced content did.
    Truncated,
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u16),
    /// The trailing FNV-1a checksum does not match the content.
    ChecksumMismatch,
    /// Structurally invalid content (bad opcode, operand out of range,
    /// non-bijective layout, invalid UTF-8, …).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "stream truncated"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch"),
            CodecError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- encoding

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Sentinel for an unplaced logical qubit in the layout assignment.
const UNPLACED: u32 = u32::MAX;

fn put_gate(out: &mut Vec<u8>, g: &Gate) {
    match *g {
        Gate::H(q) => {
            put_u8(out, 0);
            put_u32(out, q as u32);
        }
        Gate::S(q) => {
            put_u8(out, 1);
            put_u32(out, q as u32);
        }
        Gate::Sdg(q) => {
            put_u8(out, 2);
            put_u32(out, q as u32);
        }
        Gate::X(q) => {
            put_u8(out, 3);
            put_u32(out, q as u32);
        }
        Gate::Rz(q, theta) => {
            put_u8(out, 4);
            put_u32(out, q as u32);
            put_f64(out, theta);
        }
        Gate::Cnot(a, b) => {
            put_u8(out, 5);
            put_u32(out, a as u32);
            put_u32(out, b as u32);
        }
        Gate::Swap(a, b) => {
            put_u8(out, 6);
            put_u32(out, a as u32);
            put_u32(out, b as u32);
        }
        Gate::Measure(q) => {
            put_u8(out, 7);
            put_u32(out, q as u32);
        }
        Gate::Reset(q) => {
            put_u8(out, 8);
            put_u32(out, q as u32);
        }
    }
}

/// Serializes an [`EngineOutput`] to the versioned byte stream. Encoding is
/// deterministic: equal outputs produce equal bytes (the round-trip tests
/// pin a golden digest on exactly this property).
pub fn encode_output(output: &EngineOutput) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 16 * output.circuit.len());
    out.extend_from_slice(&MAGIC);
    put_u16(&mut out, VERSION);

    put_str(&mut out, &output.compiler);

    // Circuit.
    put_u32(&mut out, output.circuit.n_qubits() as u32);
    put_u32(&mut out, output.circuit.len() as u32);
    for g in output.circuit.gates() {
        put_gate(&mut out, g);
    }

    // Stats.
    let s = &output.stats;
    put_u64(&mut out, s.original_cnots as u64);
    put_u64(&mut out, s.emitted_cnots as u64);
    put_u64(&mut out, s.canceled_cnots as u64);
    put_u64(&mut out, s.swaps_inserted as u64);
    put_u64(&mut out, s.swaps_final as u64);
    put_u64(&mut out, s.canceled_1q as u64);
    put_u64(&mut out, s.metrics.depth as u64);
    put_u64(&mut out, s.metrics.duration);
    put_u64(&mut out, s.metrics.cnot_count as u64);
    put_u64(&mut out, s.metrics.single_qubit_count as u64);
    put_u64(&mut out, s.metrics.total_gates as u64);
    put_u64(&mut out, s.metrics.swap_count as u64);
    put_f64(&mut out, s.compile_seconds);

    // Layout.
    match &output.final_layout {
        None => put_u8(&mut out, 0),
        Some(layout) => {
            put_u8(&mut out, 1);
            put_u32(&mut out, layout.n_logical() as u32);
            put_u32(&mut out, layout.n_physical() as u32);
            for q in 0..layout.n_logical() {
                match layout.phys_of(q) {
                    Some(p) => put_u32(&mut out, p as u32),
                    None => put_u32(&mut out, UNPLACED),
                }
            }
        }
    }

    // Stage timings (v2). The count prefix lets a hypothetical reader of
    // a stream with more stages than it knows skip cleanly; this build
    // only accepts its own count.
    if output.stages.is_zero() {
        put_u8(&mut out, 0);
    } else {
        put_u8(&mut out, 1);
        put_u32(&mut out, N_STAGES as u32);
        for &secs in output.stages.values() {
            put_f64(&mut out, secs);
        }
    }

    let mut h = Fingerprint64::new();
    h.write_bytes(&out);
    put_u64(&mut out, h.finish());
    out
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }

    fn qubit(&mut self, width: usize) -> Result<usize, CodecError> {
        let q = self.u32()? as usize;
        if q >= width {
            return Err(CodecError::Invalid("gate operand out of range"));
        }
        Ok(q)
    }
}

/// Deserializes a byte stream produced by [`encode_output`].
///
/// Never panics: any malformed input — truncation, bit flips, a different
/// format, a future version — comes back as a [`CodecError`].
pub fn decode_output(bytes: &[u8]) -> Result<EngineOutput, CodecError> {
    // Frame: magic + version up front, checksum at the back.
    if bytes.len() < MAGIC.len() + 2 + 8 {
        return Err(CodecError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let (content, check) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(check.try_into().unwrap());
    let mut h = Fingerprint64::new();
    h.write_bytes(content);
    if h.finish() != stored {
        return Err(CodecError::ChecksumMismatch);
    }

    let mut r = Reader {
        bytes: content,
        pos: 4,
    };
    let version = r.u16()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }

    let compiler = r.string()?;

    // Circuit.
    let n_qubits = r.u32()? as usize;
    let n_gates = r.u32()? as usize;
    // A gate occupies at least 5 bytes; reject absurd counts before
    // allocating (a corrupt length must not OOM the loader). Past the
    // check, the gate list is allocated once at its final length.
    if n_gates > content.len() / 5 + 1 {
        return Err(CodecError::Invalid("gate count exceeds stream size"));
    }
    let mut circuit = Circuit::with_capacity(n_qubits, n_gates);
    for _ in 0..n_gates {
        let gate = match r.u8()? {
            0 => Gate::H(r.qubit(n_qubits)?),
            1 => Gate::S(r.qubit(n_qubits)?),
            2 => Gate::Sdg(r.qubit(n_qubits)?),
            3 => Gate::X(r.qubit(n_qubits)?),
            4 => Gate::Rz(r.qubit(n_qubits)?, r.f64()?),
            5 => Gate::Cnot(r.qubit(n_qubits)?, r.qubit(n_qubits)?),
            6 => Gate::Swap(r.qubit(n_qubits)?, r.qubit(n_qubits)?),
            7 => Gate::Measure(r.qubit(n_qubits)?),
            8 => Gate::Reset(r.qubit(n_qubits)?),
            _ => return Err(CodecError::Invalid("unknown gate opcode")),
        };
        circuit.push(gate);
    }

    // Stats.
    let stats = CompileStats {
        original_cnots: r.u64()? as usize,
        emitted_cnots: r.u64()? as usize,
        canceled_cnots: r.u64()? as usize,
        swaps_inserted: r.u64()? as usize,
        swaps_final: r.u64()? as usize,
        canceled_1q: r.u64()? as usize,
        metrics: Metrics {
            depth: r.u64()? as usize,
            duration: r.u64()?,
            cnot_count: r.u64()? as usize,
            single_qubit_count: r.u64()? as usize,
            total_gates: r.u64()? as usize,
            swap_count: r.u64()? as usize,
        },
        compile_seconds: r.f64()?,
    };

    // Layout.
    let final_layout = match r.u8()? {
        0 => None,
        1 => {
            let n_logical = r.u32()? as usize;
            let n_physical = r.u32()? as usize;
            if n_logical > n_physical || n_physical > content.len() {
                return Err(CodecError::Invalid("layout dimensions"));
            }
            let mut assignment = Vec::with_capacity(n_logical);
            let mut taken = vec![false; n_physical];
            for _ in 0..n_logical {
                let p = r.u32()?;
                if p == UNPLACED {
                    assignment.push(None);
                    continue;
                }
                let p = p as usize;
                if p >= n_physical || taken[p] {
                    return Err(CodecError::Invalid("layout not a partial bijection"));
                }
                taken[p] = true;
                assignment.push(Some(p));
            }
            Some(Layout::from_partial_assignment(&assignment, n_physical))
        }
        _ => return Err(CodecError::Invalid("bad layout flag")),
    };

    // Stage timings (v2).
    let stages = match r.u8()? {
        0 => StageTimings::default(),
        1 => {
            if r.u32()? as usize != N_STAGES {
                return Err(CodecError::Invalid("stage count"));
            }
            let mut secs = [0f64; N_STAGES];
            for slot in &mut secs {
                let v = r.f64()?;
                if !v.is_finite() || v < 0.0 {
                    return Err(CodecError::Invalid("stage seconds"));
                }
                *slot = v;
            }
            StageTimings::from_values(secs)
        }
        _ => return Err(CodecError::Invalid("bad stages flag")),
    };

    if r.pos != content.len() {
        return Err(CodecError::Invalid("trailing bytes"));
    }

    Ok(EngineOutput {
        compiler,
        circuit,
        stats,
        final_layout,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use tetris_obs::trace::Stage;

    fn sample_stages() -> StageTimings {
        let mut t = StageTimings::default();
        t.add(Stage::Clustering, 0.25);
        t.add(Stage::Synthesis, 0.5);
        t.add(Stage::Other, 0.0625);
        t
    }

    fn sample() -> EngineOutput {
        let mut circuit = Circuit::new(4);
        circuit.push(Gate::H(0));
        circuit.push(Gate::Rz(1, -0.75));
        circuit.push(Gate::Cnot(0, 1));
        circuit.push(Gate::Swap(2, 3));
        circuit.push(Gate::Measure(3));
        EngineOutput {
            compiler: "Tetris".to_string(),
            circuit,
            stats: CompileStats {
                original_cnots: 10,
                emitted_cnots: 12,
                canceled_cnots: 4,
                swaps_inserted: 2,
                swaps_final: 1,
                canceled_1q: 3,
                metrics: Metrics {
                    depth: 7,
                    duration: 4321,
                    cnot_count: 4,
                    single_qubit_count: 2,
                    total_gates: 6,
                    swap_count: 1,
                },
                compile_seconds: 0.125,
            },
            final_layout: Some(Layout::from_assignment(&[2, 0, 3], 4)),
            stages: sample_stages(),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let original = sample();
        let bytes = encode_output(&original);
        let decoded = decode_output(&bytes).expect("decodes");
        assert_eq!(decoded.compiler, original.compiler);
        assert_eq!(decoded.circuit, original.circuit);
        assert_eq!(decoded.stats, original.stats);
        assert_eq!(decoded.final_layout, original.final_layout);
        assert_eq!(decoded.stages, original.stages);
        // Re-encoding reproduces the bytes exactly.
        assert_eq!(encode_output(&decoded), bytes);
    }

    #[test]
    fn zero_stages_encode_as_absent() {
        let mut o = sample();
        o.stages = StageTimings::default();
        let bytes = encode_output(&o);
        let decoded = decode_output(&bytes).expect("decodes");
        assert!(decoded.stages.is_zero());
        // The section costs exactly one flag byte when nothing was
        // recorded, versus 1 + 4 + 11×8 when something was.
        assert_eq!(
            encode_output(&sample()).len() - bytes.len(),
            4 + N_STAGES * 8
        );
    }

    #[test]
    fn missing_layout_round_trips() {
        let mut o = sample();
        o.final_layout = None;
        let decoded = decode_output(&encode_output(&o)).expect("decodes");
        assert_eq!(decoded.final_layout, None);
    }

    #[test]
    fn partial_layout_round_trips() {
        let mut o = sample();
        o.final_layout = Some(Layout::from_partial_assignment(
            &[Some(3), None, Some(1)],
            4,
        ));
        let decoded = decode_output(&encode_output(&o)).expect("decodes");
        assert_eq!(decoded.final_layout, o.final_layout);
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode_output(&sample());
        for len in 0..bytes.len() {
            assert!(
                decode_output(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_errors_cleanly() {
        let bytes = encode_output(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_output(&bad).is_err(),
                "flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn future_version_is_rejected_not_misread() {
        let mut bytes = encode_output(&sample());
        bytes[4] = 3; // version low byte
        bytes[5] = 0;
        // Fix up the checksum so only the version differs.
        let content_len = bytes.len() - 8;
        let mut h = Fingerprint64::new();
        h.write_bytes(&bytes[..content_len]);
        let sum = h.finish().to_le_bytes();
        bytes[content_len..].copy_from_slice(&sum);
        assert_eq!(
            decode_output(&bytes),
            Err(CodecError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn past_version_is_rejected_for_recompilation() {
        // A v1 stream (no stages section) must not be misread as v2: the
        // disk tier treats it as a miss and recompiles, which is the
        // sanctioned migration path.
        let mut bytes = encode_output(&sample());
        bytes[4] = 1;
        let content_len = bytes.len() - 8;
        let mut h = Fingerprint64::new();
        h.write_bytes(&bytes[..content_len]);
        let sum = h.finish().to_le_bytes();
        bytes[content_len..].copy_from_slice(&sum);
        assert_eq!(
            decode_output(&bytes),
            Err(CodecError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(decode_output(b""), Err(CodecError::Truncated));
        assert_eq!(
            decode_output(b"not a cache file at all, just text"),
            Err(CodecError::BadMagic)
        );
    }
}
