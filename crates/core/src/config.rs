//! The design-choice configuration: hardware parameters plus the software
//! policy knobs each §4 experiment varies.

use shrimp_faults::{FaultScenario, Reliability};
use shrimp_net::MeshConfig;
use shrimp_nic::NicConfig;
use shrimp_sim::{time, Time};

/// Full system configuration for one experiment.
///
/// [`DesignConfig::default`] is the SHRIMP machine as built and measured;
/// every experiment in the paper corresponds to flipping one field (or one
/// field of the embedded [`NicConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DesignConfig {
    /// Network-interface hardware/firmware parameters.
    pub nic: NicConfig,
    /// Backplane override; `None` picks the smallest SHRIMP-parameter mesh
    /// that holds the cluster (ablation studies sweep this).
    pub mesh: Option<MeshConfig>,
    /// Table 2: require a system call before every message send (the
    /// "aggressive kernel-based implementation" of §4.3).
    pub syscall_send: bool,
    /// Cost of a kernel trap + argument checks + return (1994-era Pentium).
    pub syscall_cost: Time,
    /// Cost of taking an interrupt and running a null kernel handler.
    pub interrupt_cost: Time,
    /// Additional cost of delivering a user-level notification (signal-like
    /// control transfer) on top of the kernel interrupt.
    pub notification_cost: Time,
    /// Node CPU clock (60 MHz Pentium).
    pub cpu_hz: u64,
    /// Local cache-to-cache copy bandwidth for user-level buffer copies.
    pub copy_bytes_per_sec: u64,
    /// Cost per word of a write-through (snoopable) store — the price the
    /// CPU pays for automatic-update bindings.
    pub wt_store_word_cost: Time,
    /// Cost per word of an ordinary write-back store.
    pub wb_store_word_cost: Time,
    /// Faults injected into this run; [`FaultScenario::none`] (the default)
    /// injects nothing and adds no overhead.
    pub faults: FaultScenario,
    /// Reliable-delivery knob for deliberate update: sequence numbers,
    /// acks, and timeout/backoff retransmission. Off by default — the
    /// unreliable fast path is the machine as built.
    pub reliability: Reliability,
}

impl DesignConfig {
    /// The system as built: user-level DMA sends, no forced interrupts,
    /// combining on, 32 KB outgoing FIFO, single-slot DU engine.
    pub fn as_built() -> Self {
        DesignConfig {
            nic: NicConfig::shrimp_default(),
            mesh: None,
            syscall_send: false,
            syscall_cost: time::us(25),
            interrupt_cost: time::us(20),
            notification_cost: time::us(15),
            cpu_hz: 60_000_000,
            copy_bytes_per_sec: 80_000_000,
            wt_store_word_cost: time::ns(220),
            wb_store_word_cost: time::ns(17), // ~1 cycle at 60 MHz
            faults: FaultScenario::none(),
            reliability: Reliability::default(),
        }
    }

    /// Duration of `n` CPU cycles at this configuration's clock.
    pub fn cycles(&self, n: u64) -> Time {
        time::cycles(n, self.cpu_hz)
    }

    /// Duration of a user-level copy of `bytes` bytes.
    pub fn copy_time(&self, bytes: usize) -> Time {
        time::transfer(bytes as u64, self.copy_bytes_per_sec)
    }

    /// Compact summary of every knob flipped relative to the machine as
    /// built (`"as-built"` when none are) — recorded per run in sweep
    /// artifacts so a row is self-describing.
    pub fn knob_summary(&self) -> String {
        let base = DesignConfig::as_built();
        let mut parts = Vec::new();
        if self.syscall_send {
            parts.push("syscall-send".to_string());
        }
        if self.nic.interrupt_per_message {
            parts.push("interrupt-per-message".to_string());
        }
        if self.nic.combining != base.nic.combining {
            parts.push(format!("combining={}", self.nic.combining));
        }
        if self.nic.out_fifo_capacity != base.nic.out_fifo_capacity {
            parts.push(format!("fifo={}B", self.nic.out_fifo_capacity));
        }
        if self.nic.du_queue_depth != base.nic.du_queue_depth {
            parts.push(format!("du-queue={}", self.nic.du_queue_depth));
        }
        if self.nic.combine_subpage != base.nic.combine_subpage {
            parts.push(format!("subpage={}B", self.nic.combine_subpage));
        }
        if self.nic.eisa_bytes_per_sec != base.nic.eisa_bytes_per_sec {
            parts.push(format!("eisa={}B/s", self.nic.eisa_bytes_per_sec));
        }
        if self.interrupt_cost != base.interrupt_cost {
            parts.push(format!(
                "interrupt-cost={}ns",
                self.interrupt_cost / time::ns(1)
            ));
        }
        if let Some(mesh) = &self.mesh {
            parts.push(format!("hop={}ns", mesh.hop_latency / time::ns(1)));
        }
        if self.reliability.enabled {
            parts.push("reliable".to_string());
        }
        if self.faults.is_active() {
            parts.push(format!("faults={}", self.faults.label()));
        }
        if parts.is_empty() {
            "as-built".to_string()
        } else {
            parts.join(",")
        }
    }
}

impl Default for DesignConfig {
    fn default() -> Self {
        Self::as_built()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_machine_as_built() {
        let c = DesignConfig::default();
        assert!(!c.syscall_send);
        assert!(!c.nic.interrupt_per_message);
        assert!(c.nic.combining);
        assert_eq!(c.cpu_hz, 60_000_000);
    }

    #[test]
    fn knob_summary_names_flipped_knobs() {
        assert_eq!(DesignConfig::default().knob_summary(), "as-built");
        let mut c = DesignConfig {
            syscall_send: true,
            ..DesignConfig::default()
        };
        c.nic.combining = false;
        assert_eq!(c.knob_summary(), "syscall-send,combining=false");
    }

    #[test]
    fn knob_summary_names_ablated_parameters() {
        let mut c = DesignConfig {
            interrupt_cost: time::us(5),
            mesh: Some(MeshConfig {
                hop_latency: time::ns(200),
                ..MeshConfig::for_nodes(4)
            }),
            ..DesignConfig::default()
        };
        c.nic.combine_subpage = 64;
        c.nic.eisa_bytes_per_sec = 15_000_000;
        assert_eq!(
            c.knob_summary(),
            "subpage=64B,eisa=15000000B/s,interrupt-cost=5000ns,hop=200ns"
        );
    }

    #[test]
    fn knob_summary_names_reliability_and_faults() {
        let mut c = DesignConfig {
            reliability: Reliability::on(),
            ..DesignConfig::default()
        };
        c.faults.drop_pct = 5;
        assert_eq!(c.knob_summary(), "reliable,faults=drop5");
    }

    #[test]
    fn cycles_and_copy_helpers() {
        let c = DesignConfig::default();
        assert_eq!(c.cycles(60), time::us(1));
        assert_eq!(c.copy_time(80), time::us(1));
    }
}
