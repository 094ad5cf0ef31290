//! PCIe Transaction Layer Packet (TLP) header metadata encoding (Fig. 7).
//!
//! IDIO transfers the classifier's per-packet metadata from the NIC to the
//! on-chip IDIO controller inside the *reserved* bits of each DMA request's
//! TLP header:
//!
//! * the destination core is encoded in 6 reserved bits — bit 23, bits
//!   19:16, and bit 11 of the first header dword;
//! * the all-ones core pattern (63) marks **application class 1** (so at
//!   most 63 cores are addressable);
//! * the header/payload flag lives at reserved bit 31 and the burst flag at
//!   reserved bit 10 of the second header dword.
//!
//! Encoding and decoding are exact inverses (property-tested), and encoding
//! never touches non-reserved bits.

use std::error::Error;
use std::fmt;

use idio_cache::addr::CoreId;

/// The application class carried by a DMA transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppClass {
    /// Short use distance: keep the data on-chip (default).
    Class0,
    /// Long use distance / rarely-touched payload: candidate for selective
    /// direct DRAM access.
    Class1,
}

/// Per-DMA-transaction metadata produced by the IDIO classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlpMeta {
    /// Destination core for the packet. Ignored (and lost in encoding) for
    /// class-1 transactions, which use the all-ones core pattern.
    pub dest_core: CoreId,
    /// Application class.
    pub app_class: AppClass,
    /// Whether this transaction carries the first (header) line of a
    /// packet.
    pub is_header: bool,
    /// Whether the classifier detected the start of an RX burst on this
    /// transaction's destination core.
    pub is_burst: bool,
}

/// Error: the destination core does not fit the 6-bit TLP encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreRangeError {
    /// The offending core id.
    pub core: CoreId,
}

impl fmt::Display for CoreRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} is past the 63 cores (0-62) that IDIO's 6-bit TLP encoding addresses",
            self.core
        )
    }
}

impl Error for CoreRangeError {}

/// A (stylised) PCIe memory-write TLP header: four dwords, of which we model
/// the reserved-bit usage exactly and leave the architected fields zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlpHeader {
    /// The four header dwords.
    pub dwords: [u32; 4],
}

/// Core-id bit positions in dword 0, most-significant first.
const CORE_BITS: [u32; 6] = [23, 19, 18, 17, 16, 11];
/// Header/payload flag position in dword 1.
const HEADER_BIT: u32 = 31;
/// Burst flag position in dword 1.
const BURST_BIT: u32 = 10;
/// All-ones 6-bit pattern marking application class 1.
const CLASS1_PATTERN: u8 = 0x3f;

impl TlpHeader {
    /// Encodes classifier metadata into the reserved bits.
    ///
    /// # Errors
    ///
    /// Returns [`CoreRangeError`] if a class-0 transaction targets a core
    /// above 62.
    pub fn encode(meta: TlpMeta) -> Result<TlpHeader, CoreRangeError> {
        let core6: u8 = match meta.app_class {
            AppClass::Class1 => CLASS1_PATTERN,
            AppClass::Class0 => {
                let c = meta.dest_core.get();
                if c >= 63 {
                    return Err(CoreRangeError {
                        core: meta.dest_core,
                    });
                }
                c as u8
            }
        };
        let mut dwords = [0u32; 4];
        for (i, bit) in CORE_BITS.iter().enumerate() {
            // CORE_BITS[0] carries the MSB of the 6-bit value.
            let v = (core6 >> (5 - i)) & 1;
            dwords[0] |= u32::from(v) << bit;
        }
        if meta.is_header {
            dwords[1] |= 1 << HEADER_BIT;
        }
        if meta.is_burst {
            dwords[1] |= 1 << BURST_BIT;
        }
        Ok(TlpHeader { dwords })
    }

    /// Decodes the reserved bits back into classifier metadata.
    ///
    /// Class-1 transactions decode with `dest_core == CoreId::new(0)`
    /// (the controller ignores the core for class 1).
    pub fn decode(&self) -> TlpMeta {
        let mut core6: u8 = 0;
        for bit in CORE_BITS {
            core6 = (core6 << 1) | ((self.dwords[0] >> bit) & 1) as u8;
        }
        let app_class = if core6 == CLASS1_PATTERN {
            AppClass::Class1
        } else {
            AppClass::Class0
        };
        TlpMeta {
            dest_core: if app_class == AppClass::Class1 {
                CoreId::new(0)
            } else {
                CoreId::new(u16::from(core6))
            },
            app_class,
            is_header: (self.dwords[1] >> HEADER_BIT) & 1 == 1,
            is_burst: (self.dwords[1] >> BURST_BIT) & 1 == 1,
        }
    }

    /// The mask of dword-0 bits the encoding may set (for verifying that
    /// architected fields are untouched).
    pub fn reserved_mask_dword0() -> u32 {
        CORE_BITS.iter().fold(0, |m, b| m | (1 << b))
    }

    /// The mask of dword-1 bits the encoding may set.
    pub fn reserved_mask_dword1() -> u32 {
        (1 << HEADER_BIT) | (1 << BURST_BIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(core: u16, class: AppClass, header: bool, burst: bool) -> TlpMeta {
        TlpMeta {
            dest_core: CoreId::new(core),
            app_class: class,
            is_header: header,
            is_burst: burst,
        }
    }

    #[test]
    fn roundtrip_all_cores_and_flags() {
        for core in 0..63u16 {
            for header in [false, true] {
                for burst in [false, true] {
                    let m = meta(core, AppClass::Class0, header, burst);
                    let h = TlpHeader::encode(m).unwrap();
                    assert_eq!(h.decode(), m, "core {core} h{header} b{burst}");
                }
            }
        }
    }

    #[test]
    fn class1_uses_all_ones_pattern() {
        let m = meta(7, AppClass::Class1, false, true);
        let h = TlpHeader::encode(m).unwrap();
        let d = h.decode();
        assert_eq!(d.app_class, AppClass::Class1);
        assert!(d.is_burst);
        // The core id is deliberately not preserved for class 1.
        assert_eq!(d.dest_core, CoreId::new(0));
        // All six core bits are set.
        assert_eq!(
            h.dwords[0] & TlpHeader::reserved_mask_dword0(),
            TlpHeader::reserved_mask_dword0()
        );
    }

    #[test]
    fn core_63_rejected_for_class0() {
        let err = TlpHeader::encode(meta(63, AppClass::Class0, false, false)).unwrap_err();
        assert_eq!(err.core, CoreId::new(63));
        assert!(err.to_string().contains("6-bit"));
    }

    #[test]
    fn core_range_error_names_the_63_addressable_cores() {
        let err = TlpHeader::encode(meta(64, AppClass::Class0, false, false)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "core64 is past the 63 cores (0-62) that IDIO's 6-bit TLP encoding addresses"
        );
    }

    #[test]
    fn encoding_stays_within_reserved_bits() {
        let h = TlpHeader::encode(meta(62, AppClass::Class0, true, true)).unwrap();
        assert_eq!(h.dwords[0] & !TlpHeader::reserved_mask_dword0(), 0);
        assert_eq!(h.dwords[1] & !TlpHeader::reserved_mask_dword1(), 0);
        assert_eq!(h.dwords[2], 0);
        assert_eq!(h.dwords[3], 0);
    }

    #[test]
    fn bit_positions_match_figure7() {
        // Core 0b100001 (33): MSB at bit 23, LSB at bit 11.
        let h = TlpHeader::encode(meta(33, AppClass::Class0, false, false)).unwrap();
        assert_eq!(h.dwords[0], (1 << 23) | (1 << 11));
        // Header flag bit 31, burst flag bit 10, both in dword 1.
        let h2 = TlpHeader::encode(meta(0, AppClass::Class0, true, true)).unwrap();
        assert_eq!(h2.dwords[1], (1 << 31) | (1 << 10));
    }
}
