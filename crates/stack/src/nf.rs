//! Network functions (Table II) and their memory access patterns.
//!
//! An NF is described by the per-packet *program* it runs against the DMA
//! buffer: which lines it reads and writes (descriptor, mbuf metadata,
//! header, payload) and whether the packet is dropped or transmitted. The
//! full-system simulator executes the program against the cache hierarchy
//! and charges core time per access.

use idio_cache::addr::Addr;
#[cfg(test)]
use idio_net::packet::HEADER_BYTES;

/// Bytes of mbuf metadata the driver maintains per packet (`rte_mbuf`
/// header: two cache lines).
pub const MBUF_META_BYTES: u64 = 128;

/// One memory operation of an NF's per-packet program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Read `lines` cache lines starting at `addr`.
    Read {
        /// Start address (line-aligned by construction).
        addr: Addr,
        /// Number of 64-byte lines.
        lines: u32,
    },
    /// Write `lines` cache lines starting at `addr`.
    Write {
        /// Start address (line-aligned by construction).
        addr: Addr,
        /// Number of 64-byte lines.
        lines: u32,
    },
}

impl MemOp {
    /// Number of lines this operation touches.
    pub fn lines(&self) -> u32 {
        match *self {
            MemOp::Read { lines, .. } | MemOp::Write { lines, .. } => lines,
        }
    }
}

/// What happens to the packet after the program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketAction {
    /// The packet is dropped; its buffer is free immediately.
    Drop,
    /// The packet is forwarded: the NIC will PCIe-read `lines` lines from
    /// the buffer, and the buffer is free only after the TX completes
    /// (zero-copy run-to-completion).
    Tx {
        /// Lines the NIC reads back out.
        lines: u32,
    },
}

/// A stage boundary inside a chained program: ops up to (but excluding)
/// `op_end` since the previous mark belong to `stage`. Single-NF programs
/// carry no marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageMark {
    /// The stage the preceding ops belong to.
    pub stage: ChainStage,
    /// Index one past the stage's last op in `PacketWork::ops`.
    pub op_end: u32,
}

/// The per-packet program of an NF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketWork {
    /// Memory operations, in program order.
    pub ops: Vec<MemOp>,
    /// Stage boundaries, in program order (empty for single-NF programs).
    /// The executor uses them to attribute service time per chain stage.
    pub marks: Vec<StageMark>,
    /// Post-processing action.
    pub action: PacketAction,
}

impl PacketWork {
    /// An empty program, the starting point for a reusable scratch buffer
    /// (see [`NfKind::packet_work_into`]).
    pub fn empty() -> Self {
        PacketWork {
            ops: Vec::new(),
            marks: Vec::new(),
            action: PacketAction::Drop,
        }
    }
}

impl Default for PacketWork {
    fn default() -> Self {
        PacketWork::empty()
    }
}

/// Addresses of the structures belonging to one received packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketCtx {
    /// DMA buffer base.
    pub buf: Addr,
    /// Descriptor record base.
    pub desc: Addr,
    /// mbuf metadata base.
    pub meta: Addr,
    /// Application-space copy buffer base (used by copy-mode stacks).
    pub app: Addr,
    /// Frame length in bytes.
    pub len: u16,
}

impl PacketCtx {
    /// Lines occupied by the frame.
    pub fn frame_lines(&self) -> u32 {
        u32::from(self.len).div_ceil(64)
    }

    /// Lines occupied by the payload (frame minus the header line).
    pub fn payload_lines(&self) -> u32 {
        self.frame_lines().saturating_sub(1)
    }
}

/// Maximum stages of an [`NfChain`] (fixed array so the chain stays
/// `Copy` and hashable in config/scenario types).
pub const MAX_CHAIN_STAGES: usize = 8;

/// One stage of a chained NF service pipeline (5GC²ache's UPF shape).
/// Each stage has its own line-touch profile, so a packet's lines are
/// touched multiple times at different reuse distances — the access shape
/// that makes too-slow buffer recycling produce the paper's DMA-leak and
/// latent-bloat signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainStage {
    /// Header parse: read the header line, stamp the mbuf metadata.
    Parse,
    /// Flow classification: header line + a 2-line flow-table lookup in
    /// application space, result written to the metadata.
    Classify,
    /// Deep inspection: read every frame line (DPI / UPF usage counting).
    Inspect,
    /// Header rewrite in place (GTP-U encap/decap style).
    Rewrite,
    /// Forward: re-read the verdict, stamp the TX header, transmit
    /// zero-copy. Only legal as the last stage.
    Forward,
}

impl ChainStage {
    /// Every stage, in enum order (index order for per-stage telemetry).
    pub const ALL: [ChainStage; 5] = [
        ChainStage::Parse,
        ChainStage::Classify,
        ChainStage::Inspect,
        ChainStage::Rewrite,
        ChainStage::Forward,
    ];

    /// The scenario-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            ChainStage::Parse => "parse",
            ChainStage::Classify => "classify",
            ChainStage::Inspect => "inspect",
            ChainStage::Rewrite => "rewrite",
            ChainStage::Forward => "forward",
        }
    }

    /// Parses a scenario-file spelling.
    pub fn from_name(s: &str) -> Option<ChainStage> {
        ChainStage::ALL.into_iter().find(|st| st.name() == s)
    }

    /// Dense index for per-stage telemetry arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Why [`NfChain::new`] rejected a stage list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainError {
    /// Index of the offending stage; `None` when the fault is the
    /// list's length.
    pub stage: Option<usize>,
    /// What is wrong.
    pub msg: String,
}

/// A validated chain of up to [`MAX_CHAIN_STAGES`] stages. Stored as a
/// fixed array (unused slots canonically zero-padded with `Parse`) so the
/// chain is `Copy`, and derived equality/hashing see only canonical forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NfChain {
    stages: [ChainStage; MAX_CHAIN_STAGES],
    len: u8,
}

impl NfChain {
    /// Builds a chain from `stages`.
    ///
    /// # Errors
    ///
    /// Returns a [`ChainError`] when the chain is empty, longer than
    /// [`MAX_CHAIN_STAGES`], or places `forward` anywhere but last (the
    /// error then names that stage).
    pub fn new(stages: &[ChainStage]) -> Result<NfChain, ChainError> {
        let whole = |msg: String| ChainError { stage: None, msg };
        if stages.is_empty() {
            return Err(whole("chain must name at least one stage".into()));
        }
        if stages.len() > MAX_CHAIN_STAGES {
            return Err(whole(format!(
                "chain has {} stages; at most {MAX_CHAIN_STAGES} supported",
                stages.len()
            )));
        }
        if let Some(i) = stages[..stages.len() - 1]
            .iter()
            .position(|s| *s == ChainStage::Forward)
        {
            return Err(ChainError {
                stage: Some(i),
                msg: "'forward' must be the last stage of a chain".into(),
            });
        }
        let mut arr = [ChainStage::Parse; MAX_CHAIN_STAGES];
        arr[..stages.len()].copy_from_slice(stages);
        Ok(NfChain {
            stages: arr,
            len: stages.len() as u8,
        })
    }

    /// The canonical UPF pipeline: parse → classify → rewrite → forward.
    pub fn upf() -> NfChain {
        NfChain::new(&[
            ChainStage::Parse,
            ChainStage::Classify,
            ChainStage::Rewrite,
            ChainStage::Forward,
        ])
        .expect("static chain is valid")
    }

    /// The stages, in execution order.
    pub fn stages(&self) -> &[ChainStage] {
        &self.stages[..usize::from(self.len)]
    }

    /// Whether the chain transmits (ends in `forward`) rather than drops.
    pub fn ends_with_forward(&self) -> bool {
        self.stages().last() == Some(&ChainStage::Forward)
    }

    /// Display name: the canonical UPF pipeline reports as `UpfChain`,
    /// anything else as `Chain`.
    pub fn display_name(&self) -> &'static str {
        if *self == NfChain::upf() {
            "UpfChain"
        } else {
            "Chain"
        }
    }
}

/// The Table II workload selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfKind {
    /// Receive packets, touch all their data, drop them.
    TouchDrop,
    /// Receive packets, rewrite the Ethernet header, forward them
    /// (zero-copy).
    L2Fwd,
    /// The Sec. VII direct-DRAM variant of L2Fwd: process the header, drop
    /// the payload untouched. Senders mark these flows application class 1.
    L2FwdPayloadDrop,
    /// The Sec. II-B *copy* recycling mode (how the Linux stack works):
    /// the packet is copied out of the DMA buffer into application space
    /// and processed there; the DMA buffer is dead right after the copy.
    TouchDropCopy,
    /// A deep-packet-inspection forwarder (IDS-style, the "deep" NF class
    /// of Sec. II-B): inspects every payload byte, then forwards the same
    /// buffer zero-copy.
    DeepFwd,
    /// A chained service pipeline ([`NfChain`]): every packet runs each
    /// stage's program in order, touching its lines at multiple reuse
    /// distances (5GC²ache's UPF shape).
    Chain(NfChain),
}

impl NfKind {
    /// Every NF a scenario file names with `nf = "..."` (a chain is
    /// spelled `chain = [...]`), in file-name order.
    pub const NAMED: [NfKind; 5] = [
        NfKind::TouchDrop,
        NfKind::L2Fwd,
        NfKind::L2FwdPayloadDrop,
        NfKind::TouchDropCopy,
        NfKind::DeepFwd,
    ];

    /// The scenario-file spelling (`touch-drop`, `l2fwd`,
    /// `l2fwd-payload-drop`, `touch-drop-copy`, `deep-fwd`); `None` for a
    /// chain.
    pub fn file_name(self) -> Option<&'static str> {
        match self {
            NfKind::TouchDrop => Some("touch-drop"),
            NfKind::L2Fwd => Some("l2fwd"),
            NfKind::L2FwdPayloadDrop => Some("l2fwd-payload-drop"),
            NfKind::TouchDropCopy => Some("touch-drop-copy"),
            NfKind::DeepFwd => Some("deep-fwd"),
            NfKind::Chain(_) => None,
        }
    }

    /// Parses a scenario-file spelling (the inverse of
    /// [`NfKind::file_name`]).
    pub fn from_file_name(s: &str) -> Option<NfKind> {
        NfKind::NAMED
            .into_iter()
            .find(|nf| nf.file_name() == Some(s))
    }

    /// The workload's display name.
    pub fn name(self) -> &'static str {
        match self {
            NfKind::TouchDrop => "TouchDrop",
            NfKind::L2Fwd => "L2Fwd",
            NfKind::L2FwdPayloadDrop => "L2FwdPayloadDrop",
            NfKind::TouchDropCopy => "TouchDropCopy",
            NfKind::DeepFwd => "DeepFwd",
            NfKind::Chain(c) => c.display_name(),
        }
    }

    /// The chain, when this NF is one.
    pub fn chain(self) -> Option<NfChain> {
        match self {
            NfKind::Chain(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the DMA buffer is recycled only after TX completion.
    pub fn frees_on_tx(self) -> bool {
        match self {
            NfKind::L2Fwd | NfKind::DeepFwd => true,
            NfKind::Chain(c) => c.ends_with_forward(),
            _ => false,
        }
    }

    /// Builds the per-packet program for a packet at `ctx`.
    ///
    /// Allocates a fresh [`PacketWork`]; hot paths that run one program
    /// per packet should keep a scratch buffer and use
    /// [`NfKind::packet_work_into`] instead.
    pub fn packet_work(self, ctx: &PacketCtx) -> PacketWork {
        let mut work = PacketWork::empty();
        self.packet_work_into(ctx, &mut work);
        work
    }

    /// Builds the per-packet program for a packet at `ctx` into `work`,
    /// reusing its `ops` allocation (the buffer is cleared first).
    ///
    /// Every NF starts by reading the descriptor (2 lines) and writing the
    /// mbuf metadata (2 lines) — the PMD's receive-side bookkeeping.
    pub fn packet_work_into(self, ctx: &PacketCtx, work: &mut PacketWork) {
        let desc_lines = (crate::DESC_BYTES_FOR_WORK / 64) as u32;
        let meta_lines = (MBUF_META_BYTES / 64) as u32;
        work.marks.clear();
        // Chain-stage marks are staged in a fixed local buffer and flushed
        // after the match (`ops` holds the mutable borrow of `work` until
        // then); the buffer is stack-only so scratch reuse stays
        // allocation-free.
        let mut chain_marks = [StageMark {
            stage: ChainStage::Parse,
            op_end: 0,
        }; MAX_CHAIN_STAGES];
        let mut n_marks = 0usize;
        let ops = &mut work.ops;
        ops.clear();
        ops.push(MemOp::Read {
            addr: ctx.desc,
            lines: desc_lines,
        });
        ops.push(MemOp::Write {
            addr: ctx.meta,
            lines: meta_lines,
        });
        let action = match self {
            NfKind::TouchDrop => {
                // Touch the entire frame, header included.
                ops.push(MemOp::Read {
                    addr: ctx.buf,
                    lines: ctx.frame_lines(),
                });
                PacketAction::Drop
            }
            NfKind::L2Fwd => {
                // Inspect and rewrite the Ethernet header in place; the
                // payload is never touched by the core.
                ops.push(MemOp::Read {
                    addr: ctx.buf,
                    lines: 1,
                });
                ops.push(MemOp::Write {
                    addr: ctx.buf,
                    lines: 1,
                });
                PacketAction::Tx {
                    lines: ctx.frame_lines(),
                }
            }
            NfKind::L2FwdPayloadDrop => {
                ops.push(MemOp::Read {
                    addr: ctx.buf,
                    lines: 1,
                });
                ops.push(MemOp::Write {
                    addr: ctx.buf,
                    lines: 1,
                });
                PacketAction::Drop
            }
            NfKind::DeepFwd => {
                // Inspect the entire frame, rewrite the header, forward.
                ops.push(MemOp::Read {
                    addr: ctx.buf,
                    lines: ctx.frame_lines(),
                });
                ops.push(MemOp::Write {
                    addr: ctx.buf,
                    lines: 1,
                });
                PacketAction::Tx {
                    lines: ctx.frame_lines(),
                }
            }
            NfKind::TouchDropCopy => {
                // Copy the frame into application space, then process the
                // copy (the processing touches lines already made private
                // by the copy's writes).
                ops.push(MemOp::Read {
                    addr: ctx.buf,
                    lines: ctx.frame_lines(),
                });
                ops.push(MemOp::Write {
                    addr: ctx.app,
                    lines: ctx.frame_lines(),
                });
                ops.push(MemOp::Read {
                    addr: ctx.app,
                    lines: ctx.frame_lines(),
                });
                PacketAction::Drop
            }
            NfKind::Chain(chain) => {
                // The receive-side preamble is attributed to the first
                // stage's segment (its mark covers ops[0..op_end]).
                for &stage in chain.stages() {
                    match stage {
                        ChainStage::Parse => {
                            ops.push(MemOp::Read {
                                addr: ctx.buf,
                                lines: 1,
                            });
                            ops.push(MemOp::Write {
                                addr: ctx.meta,
                                lines: 1,
                            });
                        }
                        ChainStage::Classify => {
                            ops.push(MemOp::Read {
                                addr: ctx.buf,
                                lines: 1,
                            });
                            ops.push(MemOp::Read {
                                addr: ctx.app,
                                lines: 2,
                            });
                            ops.push(MemOp::Write {
                                addr: ctx.meta,
                                lines: 1,
                            });
                        }
                        ChainStage::Inspect => {
                            ops.push(MemOp::Read {
                                addr: ctx.buf,
                                lines: ctx.frame_lines(),
                            });
                        }
                        ChainStage::Rewrite => {
                            ops.push(MemOp::Read {
                                addr: ctx.buf,
                                lines: 1,
                            });
                            ops.push(MemOp::Write {
                                addr: ctx.buf,
                                lines: 1,
                            });
                        }
                        ChainStage::Forward => {
                            ops.push(MemOp::Read {
                                addr: ctx.meta,
                                lines: 1,
                            });
                            ops.push(MemOp::Write {
                                addr: ctx.buf,
                                lines: 1,
                            });
                        }
                    }
                    chain_marks[n_marks] = StageMark {
                        stage,
                        op_end: ops.len() as u32,
                    };
                    n_marks += 1;
                }
                if chain.ends_with_forward() {
                    PacketAction::Tx {
                        lines: ctx.frame_lines(),
                    }
                } else {
                    PacketAction::Drop
                }
            }
        };
        work.marks.extend_from_slice(&chain_marks[..n_marks]);
        work.action = action;
    }
}

impl std::fmt::Display for NfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(len: u16) -> PacketCtx {
        PacketCtx {
            buf: Addr::new(0x10000),
            desc: Addr::new(0x20000),
            meta: Addr::new(0x30000),
            app: Addr::new(0x40000),
            len,
        }
    }

    #[test]
    fn touchdrop_reads_whole_frame() {
        let w = NfKind::TouchDrop.packet_work(&ctx(1514));
        assert_eq!(w.action, PacketAction::Drop);
        let total: u32 = w.ops.iter().map(MemOp::lines).sum();
        // 2 desc + 2 meta + 24 frame lines.
        assert_eq!(total, 28);
        assert!(matches!(w.ops.last(), Some(MemOp::Read { lines: 24, .. })));
    }

    #[test]
    fn l2fwd_touches_only_the_header() {
        let w = NfKind::L2Fwd.packet_work(&ctx(1024));
        assert_eq!(w.action, PacketAction::Tx { lines: 16 });
        // Buffer accesses: 1 read + 1 write of the header line only.
        let buf_lines: u32 = w
            .ops
            .iter()
            .filter(|op| match op {
                MemOp::Read { addr, .. } | MemOp::Write { addr, .. } => addr.get() == 0x10000,
            })
            .map(MemOp::lines)
            .sum();
        assert_eq!(buf_lines, 2);
        assert!(NfKind::L2Fwd.frees_on_tx());
    }

    #[test]
    fn deepfwd_inspects_everything_and_forwards() {
        let w = NfKind::DeepFwd.packet_work(&ctx(1514));
        assert_eq!(w.action, PacketAction::Tx { lines: 24 });
        // Reads the whole frame (deep inspection) plus desc/meta.
        let read_lines: u32 = w
            .ops
            .iter()
            .filter_map(|op| match op {
                MemOp::Read { lines, .. } => Some(*lines),
                MemOp::Write { .. } => None,
            })
            .sum();
        assert_eq!(read_lines, 2 + 24);
        assert!(NfKind::DeepFwd.frees_on_tx());
        assert_eq!(NfKind::DeepFwd.name(), "DeepFwd");
    }

    #[test]
    fn payload_drop_never_transmits() {
        let w = NfKind::L2FwdPayloadDrop.packet_work(&ctx(1514));
        assert_eq!(w.action, PacketAction::Drop);
        assert!(!NfKind::L2FwdPayloadDrop.frees_on_tx());
    }

    #[test]
    fn scratch_reuse_matches_fresh_build_and_keeps_capacity() {
        let mut scratch = PacketWork::empty();
        // A TouchDropCopy program (5 ops) followed by an L2Fwd program
        // (4 ops) must leave the scratch identical to a fresh build, with
        // no stale tail ops, and must not reallocate on the second fill.
        NfKind::TouchDropCopy.packet_work_into(&ctx(1514), &mut scratch);
        assert_eq!(scratch, NfKind::TouchDropCopy.packet_work(&ctx(1514)));
        let cap = scratch.ops.capacity();
        NfKind::L2Fwd.packet_work_into(&ctx(1024), &mut scratch);
        assert_eq!(scratch, NfKind::L2Fwd.packet_work(&ctx(1024)));
        assert_eq!(scratch.ops.capacity(), cap, "reuse, not reallocation");
    }

    #[test]
    fn header_fits_one_line() {
        // A structural assumption of the classifier (Sec. V-A).
        assert!(u64::from(HEADER_BYTES) <= 64);
    }

    #[test]
    fn small_frame_line_math() {
        let c = ctx(64);
        assert_eq!(c.frame_lines(), 1);
        assert_eq!(c.payload_lines(), 0);
    }

    #[test]
    fn names_match_table2() {
        assert_eq!(NfKind::TouchDrop.name(), "TouchDrop");
        assert_eq!(format!("{}", NfKind::L2Fwd), "L2Fwd");
    }

    #[test]
    fn file_names_round_trip() {
        for nf in NfKind::NAMED {
            let name = nf.file_name().expect("a named NF has a file name");
            assert_eq!(NfKind::from_file_name(name), Some(nf));
        }
        assert_eq!(NfKind::Chain(NfChain::upf()).file_name(), None);
        assert_eq!(NfKind::from_file_name("TouchDrop"), None);
    }

    #[test]
    fn upf_chain_touches_lines_at_multiple_reuse_distances() {
        let kind = NfKind::Chain(NfChain::upf());
        let w = kind.packet_work(&ctx(1514));
        // Ends in forward => transmits the whole frame, frees on TX.
        assert_eq!(w.action, PacketAction::Tx { lines: 24 });
        assert!(kind.frees_on_tx());
        assert_eq!(kind.name(), "UpfChain");
        // One mark per stage, strictly increasing, covering all ops.
        let stages: Vec<ChainStage> = w.marks.iter().map(|m| m.stage).collect();
        assert_eq!(stages, NfChain::upf().stages());
        assert!(w.marks.windows(2).all(|p| p[0].op_end < p[1].op_end));
        assert_eq!(w.marks.last().unwrap().op_end as usize, w.ops.len());
        // The header line is touched by parse, classify, rewrite, and
        // forward — four distinct reuse distances on the same line.
        let header_touches = w
            .ops
            .iter()
            .filter(|op| match op {
                MemOp::Read { addr, .. } | MemOp::Write { addr, .. } => addr.get() == 0x10000,
            })
            .count();
        assert_eq!(header_touches, 5);
    }

    #[test]
    fn chain_without_forward_drops() {
        let chain = NfChain::new(&[ChainStage::Parse, ChainStage::Inspect]).unwrap();
        let kind = NfKind::Chain(chain);
        let w = kind.packet_work(&ctx(1514));
        assert_eq!(w.action, PacketAction::Drop);
        assert!(!kind.frees_on_tx());
        assert_eq!(kind.name(), "Chain");
        assert_eq!(w.marks.len(), 2);
    }

    #[test]
    fn chain_validation_rejects_bad_shapes() {
        assert!(NfChain::new(&[]).is_err());
        assert!(NfChain::new(&[ChainStage::Parse; MAX_CHAIN_STAGES + 1]).is_err());
        let err = NfChain::new(&[ChainStage::Forward, ChainStage::Parse]).unwrap_err();
        assert!(err.msg.contains("last stage"), "{err:?}");
        assert_eq!(err.stage, Some(0), "the error names the misplaced stage");
        // Max-length chains without forward are fine.
        assert!(NfChain::new(&[ChainStage::Inspect; MAX_CHAIN_STAGES]).is_ok());
    }

    #[test]
    fn chain_padding_is_canonical_for_eq_and_hash() {
        let a = NfChain::new(&[ChainStage::Rewrite]).unwrap();
        let b = NfChain::new(&[ChainStage::Rewrite]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, NfChain::new(&[ChainStage::Rewrite; 2]).unwrap());
        assert_eq!(
            ChainStage::from_name("classify"),
            Some(ChainStage::Classify)
        );
        assert_eq!(ChainStage::from_name("nope"), None);
        for s in ChainStage::ALL {
            assert_eq!(ChainStage::from_name(s.name()), Some(s));
        }
    }

    #[test]
    fn scratch_reuse_clears_stale_chain_marks() {
        let mut scratch = PacketWork::empty();
        NfKind::Chain(NfChain::upf()).packet_work_into(&ctx(1514), &mut scratch);
        assert_eq!(scratch.marks.len(), 4);
        NfKind::L2Fwd.packet_work_into(&ctx(1024), &mut scratch);
        assert!(scratch.marks.is_empty(), "marks from the chain must clear");
        assert_eq!(scratch, NfKind::L2Fwd.packet_work(&ctx(1024)));
    }
}
