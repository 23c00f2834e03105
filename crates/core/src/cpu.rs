//! The node CPU model: one application process per node, preemptible by
//! interrupt handlers and DMA-induced bus stalls.
//!
//! The model keeps exact preemption semantics without time-slicing: the
//! application's current compute interval is extended by exactly the time
//! stolen from it, while handlers that fire when the CPU is idle (the
//! application is blocked on communication) cost nothing on the critical
//! path — the overlap the paper's interrupt-avoidance design exploits (§4.4).

use std::cell::Cell;
use std::rc::Rc;

use shrimp_sim::{Sim, Time};

struct CpuInner {
    sim: Sim,
    /// End of the application's current compute interval, if it is in one.
    computing_end: Cell<Option<Time>>,
    total_compute: Cell<Time>,
    total_stolen: Cell<Time>,
}

/// One node's CPU. Cheap to clone.
#[derive(Clone)]
pub struct Cpu {
    inner: Rc<CpuInner>,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("total_compute", &self.inner.total_compute.get())
            .field("total_stolen", &self.inner.total_stolen.get())
            .finish()
    }
}

impl Cpu {
    /// Creates an idle CPU.
    pub fn new(sim: Sim) -> Self {
        Cpu {
            inner: Rc::new(CpuInner {
                sim,
                computing_end: Cell::new(None),
                total_compute: Cell::new(0),
                total_stolen: Cell::new(0),
            }),
        }
    }

    /// Runs application computation for `d` of CPU time. Any time stolen by
    /// [`Cpu::steal`] while this is in progress extends the interval, so the
    /// call returns after `d` plus all preemptions.
    ///
    /// If another process is already computing on this CPU (a protocol
    /// handler doing work while the application computes), this call behaves
    /// like [`Cpu::run_handler`]: it preempts the current owner and
    /// completes after `d`.
    pub async fn compute(&self, d: Time) {
        if d == 0 {
            return;
        }
        if self.inner.computing_end.get().is_some() {
            self.run_handler(d).await;
            return;
        }
        self.inner
            .total_compute
            .set(self.inner.total_compute.get() + d);
        let mut end = self.inner.sim.now() + d;
        self.inner.computing_end.set(Some(end));
        loop {
            self.inner.sim.sleep_until(end).await;
            let cur = self
                .inner
                .computing_end
                .get()
                .expect("compute interval cleared underneath us");
            if cur == end {
                break;
            }
            end = cur;
        }
        self.inner.computing_end.set(None);
    }

    /// Steals `d` of CPU time: if the application is computing, its interval
    /// extends by `d`; if the CPU is idle the handler absorbs idle time and
    /// the application is unaffected.
    pub fn steal(&self, d: Time) {
        if d == 0 {
            return;
        }
        self.inner
            .total_stolen
            .set(self.inner.total_stolen.get() + d);
        if let Some(e) = self.inner.computing_end.get() {
            self.inner.computing_end.set(Some(e + d));
        }
    }

    /// Runs an interrupt/notification handler for `d`: preempts the
    /// application (via [`Cpu::steal`]) and completes after `d` elapses.
    pub async fn run_handler(&self, d: Time) {
        self.steal(d);
        self.inner.sim.sleep(d).await;
    }

    /// Total application compute time requested so far.
    pub fn total_compute(&self) -> Time {
        self.inner.total_compute.get()
    }

    /// Total time stolen by handlers and stalls so far.
    pub fn total_stolen(&self) -> Time {
        self.inner.total_stolen.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_sim::time::us;

    #[test]
    fn compute_runs_for_requested_time() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        sim.spawn(async move { cpu.compute(us(10)).await });
        assert_eq!(sim.run_to_completion(), us(10));
    }

    #[test]
    fn steal_during_compute_extends_it() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        let c = cpu.clone();
        sim.spawn(async move { c.compute(us(10)).await });
        let c = cpu.clone();
        sim.schedule(us(3), move || c.steal(us(5)));
        assert_eq!(sim.run_to_completion(), us(15));
        assert_eq!(cpu.total_stolen(), us(5));
    }

    #[test]
    fn steal_while_idle_is_free() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        let c = cpu.clone();
        sim.schedule(us(1), move || c.steal(us(100)));
        let c = cpu.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(us(5)).await; // blocked on "communication"
            c.compute(us(10)).await;
        });
        // The idle-time steal does not delay the later compute.
        assert_eq!(sim.run_to_completion(), us(15));
    }

    #[test]
    fn multiple_steals_accumulate() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        let c = cpu.clone();
        sim.spawn(async move { c.compute(us(10)).await });
        for t in [2, 4, 6] {
            let c = cpu.clone();
            sim.schedule(us(t), move || c.steal(us(1)));
        }
        assert_eq!(sim.run_to_completion(), us(13));
    }

    #[test]
    fn run_handler_takes_its_duration() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        let c = cpu.clone();
        let h = sim.spawn(async move {
            c.run_handler(us(7)).await;
        });
        sim.run_to_completion();
        assert!(h.is_done());
        assert_eq!(cpu.total_stolen(), us(7));
    }

    #[test]
    fn steal_late_in_extended_interval_still_counts() {
        let sim = Sim::new();
        let cpu = Cpu::new(sim.clone());
        let c = cpu.clone();
        sim.spawn(async move { c.compute(us(10)).await });
        // First steal extends to 15; second fires at 12 (inside extension).
        let c = cpu.clone();
        sim.schedule(us(3), move || c.steal(us(5)));
        let c = cpu.clone();
        sim.schedule(us(12), move || c.steal(us(2)));
        assert_eq!(sim.run_to_completion(), us(17));
    }
}
