//! MicaZ resource accounting.
//!
//! The paper reports exact footprints for its commands (ping: 2148 B
//! flash / 278 B RAM; traceroute: 2820 B / 272 B) and claims "zero extra
//! overhead if not activated". To keep those claims checkable, every
//! process registers a flash/RAM image with the kernel, which enforces
//! the MicaZ envelope (128 KB program flash, 4 KB SRAM).

use std::fmt;

/// Static cost of a process image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessImage {
    /// Program flash, bytes.
    pub flash_bytes: u32,
    /// Static RAM, bytes.
    pub ram_bytes: u32,
}

impl ProcessImage {
    /// The paper's measured ping command image.
    pub const PING: ProcessImage = ProcessImage {
        flash_bytes: 2148,
        ram_bytes: 278,
    };
    /// The paper's measured traceroute command image.
    pub const TRACEROUTE: ProcessImage = ProcessImage {
        flash_bytes: 2820,
        ram_bytes: 272,
    };
}

/// Why a registration was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceError {
    /// Not enough program flash left.
    FlashExhausted {
        /// Bytes requested.
        requested: u32,
        /// Bytes free.
        available: u32,
    },
    /// Not enough RAM left.
    RamExhausted {
        /// Bytes requested.
        requested: u32,
        /// Bytes free.
        available: u32,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::FlashExhausted {
                requested,
                available,
            } => write!(f, "flash exhausted: need {requested} B, {available} B free"),
            ResourceError::RamExhausted {
                requested,
                available,
            } => write!(f, "RAM exhausted: need {requested} B, {available} B free"),
        }
    }
}

/// Per-node resource ledger.
#[derive(Debug, Clone)]
pub struct ResourceAccount {
    flash_capacity: u32,
    ram_capacity: u32,
    flash_used: u32,
    ram_used: u32,
    /// Program files currently stored in flash. Flash is charged once
    /// per stored executable, not once per launch: re-spawning a
    /// command reuses the stored file (LiteOS keeps program files
    /// across process exits), so a long diagnosis session does not leak
    /// flash until every spawn fails.
    stored: Vec<ProcessImage>,
}

impl ResourceAccount {
    /// MicaZ: ATmega128 with 128 KB flash and 4 KB SRAM.
    pub fn micaz() -> Self {
        Self::new(128 * 1024, 4 * 1024)
    }

    /// IRIS: ATmega1281 with 128 KB flash and 8 KB SRAM — the paper
    /// notes LiteView "can also support the IRIS platform with moderate
    /// changes"; in this reproduction the only change is this envelope.
    pub fn iris() -> Self {
        Self::new(128 * 1024, 8 * 1024)
    }

    /// Custom envelope (IRIS motes differ slightly).
    pub fn new(flash_capacity: u32, ram_capacity: u32) -> Self {
        ResourceAccount {
            flash_capacity,
            ram_capacity,
            flash_used: 0,
            ram_used: 0,
            stored: Vec::new(),
        }
    }

    /// Charge `image`; refuses if either budget would overflow. An
    /// image already stored in flash is charged RAM only — launching a
    /// stored program again writes nothing new to the program store.
    pub fn register(&mut self, image: ProcessImage) -> Result<(), ResourceError> {
        let new_file = !self.stored.contains(&image);
        if new_file {
            let flash_free = self.flash_capacity - self.flash_used;
            if image.flash_bytes > flash_free {
                return Err(ResourceError::FlashExhausted {
                    requested: image.flash_bytes,
                    available: flash_free,
                });
            }
        }
        let ram_free = self.ram_capacity - self.ram_used;
        if image.ram_bytes > ram_free {
            return Err(ResourceError::RamExhausted {
                requested: image.ram_bytes,
                available: ram_free,
            });
        }
        if new_file {
            self.flash_used += image.flash_bytes;
            self.stored.push(image);
        }
        self.ram_used += image.ram_bytes;
        Ok(())
    }

    /// Release `image` (process exit). RAM is returned; flash stays
    /// occupied (a stored executable survives process exit, as on
    /// LiteOS's file-based program store).
    pub fn release_ram(&mut self, image: ProcessImage) {
        self.ram_used = self.ram_used.saturating_sub(image.ram_bytes);
    }

    /// Fully release `image` (program file deleted).
    pub fn release(&mut self, image: ProcessImage) {
        if let Some(idx) = self.stored.iter().position(|i| *i == image) {
            self.stored.remove(idx);
            self.flash_used = self.flash_used.saturating_sub(image.flash_bytes);
        }
        self.ram_used = self.ram_used.saturating_sub(image.ram_bytes);
    }

    /// Flash bytes in use.
    pub fn flash_used(&self) -> u32 {
        self.flash_used
    }

    /// RAM bytes in use.
    pub fn ram_used(&self) -> u32 {
        self.ram_used
    }

    /// Flash capacity.
    pub fn flash_capacity(&self) -> u32 {
        self.flash_capacity
    }

    /// RAM capacity.
    pub fn ram_capacity(&self) -> u32 {
        self.ram_capacity
    }

    /// Ground truth for the flash ledger: the stored program files'
    /// total footprint. The runtime auditor checks
    /// `flash_used() == stored_flash_total()` — the invariant the PR 4
    /// flash-leak bug violated.
    pub fn stored_flash_total(&self) -> u32 {
        self.stored.iter().map(|i| i.flash_bytes).sum()
    }

    /// Test hook: charge flash without storing a program file,
    /// re-creating the PR 4 leak pattern so auditor regression tests
    /// can prove the imbalance is caught. Not part of the model.
    #[doc(hidden)]
    pub fn corrupt_flash_for_audit_test(&mut self, bytes: u32) {
        self.flash_used = self.flash_used.saturating_add(bytes);
    }
}

impl Default for ResourceAccount {
    fn default() -> Self {
        Self::micaz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_footprints_fit_micaz() {
        let mut acct = ResourceAccount::micaz();
        acct.register(ProcessImage::PING).unwrap();
        acct.register(ProcessImage::TRACEROUTE).unwrap();
        assert_eq!(acct.flash_used(), 2148 + 2820);
        assert_eq!(acct.ram_used(), 278 + 272);
    }

    #[test]
    fn zero_overhead_when_inactive() {
        // The "zero extra overhead if not activated" claim: an empty
        // ledger charges nothing.
        let acct = ResourceAccount::micaz();
        assert_eq!(acct.flash_used(), 0);
        assert_eq!(acct.ram_used(), 0);
    }

    #[test]
    fn ram_exhaustion_detected() {
        let mut acct = ResourceAccount::new(1 << 20, 512);
        let big = ProcessImage {
            flash_bytes: 100,
            ram_bytes: 400,
        };
        acct.register(big).unwrap();
        match acct.register(big) {
            Err(ResourceError::RamExhausted {
                requested,
                available,
            }) => {
                assert_eq!(requested, 400);
                assert_eq!(available, 112);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flash_exhaustion_detected() {
        let mut acct = ResourceAccount::new(1000, 1 << 20);
        acct.register(ProcessImage {
            flash_bytes: 600,
            ram_bytes: 1,
        })
        .unwrap();
        // A *different* program file no longer fits…
        assert!(matches!(
            acct.register(ProcessImage {
                flash_bytes: 601,
                ram_bytes: 1,
            }),
            Err(ResourceError::FlashExhausted { .. })
        ));
    }

    #[test]
    fn respawning_stored_image_does_not_leak_flash() {
        // The dynamics-soak regression: a diagnosis session spawns the
        // same ping/traceroute images hundreds of times. Flash must be
        // charged once per stored file, or the node wedges mid-soak.
        let mut acct = ResourceAccount::micaz();
        for _ in 0..500 {
            acct.register(ProcessImage::TRACEROUTE).unwrap();
            acct.release_ram(ProcessImage::TRACEROUTE);
        }
        assert_eq!(acct.flash_used(), ProcessImage::TRACEROUTE.flash_bytes);
        assert_eq!(acct.ram_used(), 0);
        // Deleting the file frees the flash exactly once.
        acct.release(ProcessImage::TRACEROUTE);
        assert_eq!(acct.flash_used(), 0);
    }

    #[test]
    fn exit_returns_ram_not_flash() {
        let mut acct = ResourceAccount::micaz();
        acct.register(ProcessImage::PING).unwrap();
        acct.release_ram(ProcessImage::PING);
        assert_eq!(acct.ram_used(), 0);
        assert_eq!(acct.flash_used(), 2148);
        acct.release(ProcessImage::PING);
        assert_eq!(acct.flash_used(), 0);
    }

    #[test]
    fn iris_has_twice_the_sram() {
        let iris = ResourceAccount::iris();
        let micaz = ResourceAccount::micaz();
        assert_eq!(iris.ram_capacity(), 2 * micaz.ram_capacity());
        assert_eq!(iris.flash_capacity(), micaz.flash_capacity());
        // Both fit the whole LiteView suite.
        let mut acct = ResourceAccount::iris();
        acct.register(ProcessImage::PING).unwrap();
        acct.register(ProcessImage::TRACEROUTE).unwrap();
    }

    #[test]
    fn error_messages_readable() {
        let e = ResourceError::FlashExhausted {
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("flash exhausted"));
    }
}
