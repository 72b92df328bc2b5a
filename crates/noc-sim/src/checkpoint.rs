//! Simulator checkpoints: versioned, content-hashed snapshots of every
//! piece of mutable simulator state, so a run can be split at any cycle
//! boundary — including across process restarts — and continue
//! bit-identically to the unsplit run.
//!
//! A [`SimCheckpoint`] is a canonical JSON document in the same minimal
//! dialect as the fault plan (the integer-only tree over
//! [`crate::codec`]): objects, arrays, escape-free strings, and unsigned
//! integers. Everything that is
//! not naturally an unsigned integer is mapped onto one — `f64` fields
//! travel as their IEEE-754 bit patterns, signed counters as two's
//! complement casts, and the one `u128` accumulator as a (hi, lo) pair —
//! so the codec stays lossless without growing a float/negative-number
//! grammar.
//!
//! The document captures only *mutable* state that restore cannot derive
//! from its other records (the credit books and the queued and in-flight
//! tallies are recomputed from what they count). Construction-time inputs
//! (topology, configuration, the arbiter and traffic-source objects) are
//! re-supplied by the caller through [`crate::Simulator::new`], and
//! [`crate::Simulator::restore_checkpoint`] cross-checks their shape
//! against the checkpoint before applying it.

use std::cell::RefCell;

use crate::faults::json::{self, Value};
use crate::packet::{BufferedPacket, Packet};
use crate::types::{DestType, MsgType, NodeId, RouterId};

/// Checkpoint document schema version. Bumped whenever the layout
/// changes incompatibly; [`SimCheckpoint::from_json`] rejects documents
/// written by a different version instead of misinterpreting them.
/// v3 dropped the derived books and tallies; v4 drops the network
/// snapshot's cycle and in-flight count (both derived) and writes every
/// checkpoint hook's state as [`crate::codec::Words`].
pub const CHECKPOINT_VERSION: u64 = 4;

/// A serialized simulator snapshot (see the module docs for the format).
///
/// Produced by [`crate::Simulator::checkpoint`] and consumed by
/// [`crate::Simulator::restore_checkpoint`]. The canonical JSON text is the value:
/// it can be written to disk, moved between machines, and identified by
/// its [`SimCheckpoint::content_hash`].
#[derive(Debug, Clone)]
pub struct SimCheckpoint {
    text: String,
    /// The document [`SimCheckpoint::from_json`] parsed, kept until a
    /// restore takes it: restore does not parse the text a second time,
    /// and the tree does not outlive it.
    doc: RefCell<Option<Value>>,
}

impl SimCheckpoint {
    /// Wraps freshly serialized checkpoint text (crate-internal; external
    /// callers go through [`SimCheckpoint::from_json`], which validates).
    pub(crate) fn from_text(text: String) -> Self {
        SimCheckpoint {
            text,
            doc: RefCell::new(None),
        }
    }

    /// The canonical JSON document.
    pub fn to_json(&self) -> &str {
        &self.text
    }

    /// Parses checkpoint text (e.g. read back from disk). The parsed
    /// document is kept for the first restore, which then does not parse
    /// the text again.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem, or a version
    /// mismatch against [`CHECKPOINT_VERSION`]. Field-level validation
    /// happens later, in [`crate::Simulator::restore_checkpoint`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        Ok(SimCheckpoint {
            text: text.to_string(),
            doc: RefCell::new(Some(parse(text)?)),
        })
    }

    /// The parsed document: the one [`SimCheckpoint::from_json`] kept, if
    /// no restore has taken it yet, or else a parse of the text.
    pub(crate) fn take_doc(&self) -> Result<Value, String> {
        match self.doc.take() {
            Some(doc) => Ok(doc),
            None => parse(&self.text),
        }
    }

    /// 64-bit FNV-1a content hash of the canonical text, as 16 hex
    /// digits. Two checkpoints with the same hash hold byte-identical
    /// simulator state.
    pub fn content_hash(&self) -> String {
        format!("{:016x}", crate::codec::fnv1a64(self.text.as_bytes()))
    }
}

/// Parses checkpoint text and refuses a version other than
/// [`CHECKPOINT_VERSION`].
fn parse(text: &str) -> Result<Value, String> {
    let doc = json::parse(text)?;
    let version = json::get(doc.as_obj("checkpoint")?, "version")?.as_u64("version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint version {version} not supported (expected {CHECKPOINT_VERSION})"
        ));
    }
    Ok(doc)
}

/// Number of integers a [`Packet`] flattens to.
pub(crate) const PACKET_NUMS: usize = 15;

/// Number of integers a [`BufferedPacket`] flattens to.
pub(crate) const BUFFERED_NUMS: usize = PACKET_NUMS + 2;

/// Flattens a packet to its canonical integer tuple. Enum tags travel as
/// their one-hot indices so the mapping is pinned by the same tables the
/// feature encoder uses ([`MsgType::ALL`] / [`DestType::ALL`]).
pub(crate) fn packet_nums(p: &Packet) -> [u64; PACKET_NUMS] {
    [
        p.id,
        p.src.index() as u64,
        p.dst.index() as u64,
        p.vnet as u64,
        p.msg_type.one_hot_index() as u64,
        p.dst_type.one_hot_index() as u64,
        p.len_flits as u64,
        p.create_cycle,
        p.inject_cycle,
        p.src_router.index() as u64,
        p.dst_router.index() as u64,
        p.dst_slot as u64,
        p.hop_count as u64,
        p.distance as u64,
        p.tag,
    ]
}

/// Narrows a record value to a smaller integer type, refusing a value the
/// type cannot hold instead of truncating it.
pub(crate) fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("\"{what}\" value {v} out of range"))
}

/// Inverse of [`packet_nums`].
pub(crate) fn packet_from_nums(n: &[u64]) -> Result<Packet, String> {
    if n.len() != PACKET_NUMS {
        return Err(format!(
            "packet record has {} fields, expected {PACKET_NUMS}",
            n.len()
        ));
    }
    let enum3 = |idx: u64, what: &str| -> Result<usize, String> {
        if idx < 3 {
            Ok(idx as usize)
        } else {
            Err(format!("{what} tag {idx} out of range"))
        }
    };
    Ok(Packet {
        id: n[0],
        src: NodeId(n[1] as usize),
        dst: NodeId(n[2] as usize),
        vnet: n[3] as usize,
        msg_type: MsgType::ALL[enum3(n[4], "msg_type")?],
        dst_type: DestType::ALL[enum3(n[5], "dst_type")?],
        len_flits: narrow(n[6], "len_flits")?,
        create_cycle: n[7],
        inject_cycle: n[8],
        src_router: RouterId(n[9] as usize),
        dst_router: RouterId(n[10] as usize),
        dst_slot: narrow(n[11], "dst_slot")?,
        hop_count: narrow(n[12], "hop_count")?,
        distance: narrow(n[13], "distance")?,
        tag: n[14],
    })
}

/// Flattens a buffered packet: the packet tuple plus its per-buffer
/// arrival bookkeeping.
pub(crate) fn buffered_nums(bp: &BufferedPacket, out: &mut Vec<u64>) {
    out.extend_from_slice(&packet_nums(&bp.packet));
    out.push(bp.arrival_cycle);
    out.push(bp.inter_arrival);
}

/// Inverse of [`buffered_nums`].
pub(crate) fn buffered_from_nums(n: &[u64]) -> Result<BufferedPacket, String> {
    if n.len() != BUFFERED_NUMS {
        return Err(format!(
            "buffered-packet record has {} fields, expected {BUFFERED_NUMS}",
            n.len()
        ));
    }
    Ok(BufferedPacket {
        packet: packet_from_nums(&n[..PACKET_NUMS])?,
        arrival_cycle: n[PACKET_NUMS],
        inter_arrival: n[PACKET_NUMS + 1],
    })
}

/// Emits a JSON array of unsigned integers: `[1,2,3]`.
pub(crate) fn push_num_arr(out: &mut String, vals: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

/// Reads a parsed value as a flat integer array, refusing (see [`narrow`])
/// an element too wide for `T`.
pub(crate) fn num_arr<T: TryFrom<u64>>(v: &Value, what: &str) -> Result<Vec<T>, String> {
    v.as_arr(what)?
        .iter()
        .map(|item| narrow(item.as_u64(what)?, what))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_round_trips_through_nums() {
        let mut p = Packet::test_packet();
        p.id = 918;
        p.msg_type = MsgType::Coherence;
        p.dst_type = DestType::Memory;
        p.tag = u64::MAX;
        p.create_cycle = 123_456;
        let back = packet_from_nums(&packet_nums(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn buffered_packet_round_trips() {
        let bp = BufferedPacket {
            packet: Packet::test_packet(),
            arrival_cycle: 77,
            inter_arrival: 5,
        };
        let mut nums = Vec::new();
        buffered_nums(&bp, &mut nums);
        assert_eq!(buffered_from_nums(&nums).unwrap(), bp);
    }

    #[test]
    fn bad_enum_tags_are_rejected() {
        let mut nums = packet_nums(&Packet::test_packet()).to_vec();
        nums[4] = 3;
        assert!(packet_from_nums(&nums).unwrap_err().contains("msg_type"));
    }

    #[test]
    fn values_too_wide_for_their_field_are_rejected_not_truncated() {
        let mut nums = packet_nums(&Packet::test_packet()).to_vec();
        nums[11] = 256;
        assert!(packet_from_nums(&nums).unwrap_err().contains("dst_slot"));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let err = SimCheckpoint::from_json("{\"version\": 999}").unwrap_err();
        assert!(err.contains("999"), "{err}");
    }

    #[test]
    fn content_hash_is_stable_and_text_sensitive() {
        let a = SimCheckpoint::from_text("{\"version\": 1}".into());
        let b = SimCheckpoint::from_text("{\"version\": 1}".into());
        let c = SimCheckpoint::from_text("{\"version\": 1} ".into());
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        assert_eq!(a.content_hash().len(), 16);
    }
}
