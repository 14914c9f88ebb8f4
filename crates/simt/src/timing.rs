//! Analytic timing model for the simulated device and the modeled host CPU.
//!
//! The wall-clock numbers in the paper's Figure 4 and Tables I/II come from
//! real CUDA hardware we do not have.  The suite therefore *models* both
//! sides from the same abstract work counts that the pipeline measures while
//! it actually executes the algorithm on the host:
//!
//! * the **device time** of a kernel launch follows a wave model — resident
//!   blocks per SM come from the occupancy calculation, blocks are processed
//!   in waves, and each wave's cycle count is the per-thread work divided by
//!   the SM's scalar cores with a latency-hiding efficiency that grows with
//!   occupancy;
//! * the **host (single-core CPU) time** for the same work is the work-unit
//!   count divided by the modeled CPU's sustained operation rate.
//!
//! Because both estimates are driven by the same measured work counts, the
//! *shape* of the paper's results (which kernel dominates, how the speedup
//! saturates with population size) is reproduced even though the absolute
//! microseconds are synthetic.

use crate::device::{DeviceSpec, HostSpec};
use crate::kernel::{KernelKind, LaunchConfig};

/// Latency-hiding efficiency as a function of occupancy: even one resident
/// warp keeps a fraction of the pipeline busy, and efficiency approaches 1
/// as the SM fills.
fn latency_hiding_efficiency(occupancy: f64) -> f64 {
    0.30 + 0.70 * occupancy.clamp(0.0, 1.0)
}

/// The analytic timing model: a device plus the host CPU it is compared to.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingModel {
    /// The SIMT device model.
    pub device: DeviceSpec,
    /// The host CPU model used for the "CPU implementation" baseline.
    pub host: HostSpec,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            device: DeviceSpec::gtx280(),
            host: HostSpec::paper_cpu(),
        }
    }
}

impl TimingModel {
    /// Create a model from explicit specs.
    pub fn new(device: DeviceSpec, host: HostSpec) -> Self {
        TimingModel { device, host }
    }

    /// Modeled device time (µs) for one kernel launch in which every thread
    /// performs `work_units_per_thread` abstract work units.
    pub fn kernel_time_us(
        &self,
        kernel: KernelKind,
        launch: LaunchConfig,
        work_units_per_thread: f64,
    ) -> f64 {
        if launch.blocks == 0 || launch.threads_per_block == 0 {
            return self.device.launch_overhead_us;
        }
        let occ = launch.occupancy(&self.device, kernel);
        let blocks_per_sm = occ.blocks_per_sm.max(1);
        // How many "waves" of resident blocks the grid needs.
        let resident_blocks = self.device.sm_count * blocks_per_sm;
        let waves = launch.blocks.div_ceil(resident_blocks).max(1);

        let cycles_per_thread = work_units_per_thread * kernel.cycles_per_work_unit();
        let threads_per_sm_per_wave = (blocks_per_sm * launch.threads_per_block).min(
            launch
                .total_threads()
                .div_ceil(self.device.sm_count)
                .max(launch.threads_per_block),
        );
        let efficiency = latency_hiding_efficiency(occ.occupancy);
        let wave_cycles = (threads_per_sm_per_wave as f64 * cycles_per_thread)
            / (self.device.cores_per_sm as f64 * efficiency);
        let total_cycles = waves as f64 * wave_cycles;
        self.device.launch_overhead_us + total_cycles / self.device.clock_mhz
    }

    /// Modeled single-core host time (µs) for the same total work: the CPU
    /// baseline processes every conformation sequentially.
    pub fn cpu_time_us(
        &self,
        kernel: KernelKind,
        population: usize,
        work_units_per_thread: f64,
    ) -> f64 {
        let total_work = population as f64 * work_units_per_thread;
        // The host runs the same arithmetic; charge it the same cycle count
        // per work unit scaled by the host's superscalar throughput.
        let cycles = total_work * kernel.cycles_per_work_unit();
        cycles / (self.host.clock_mhz * self.host.ops_per_cycle)
    }

    /// Modeled speedup of the device over the single-core host for one
    /// launch.
    pub fn speedup(
        &self,
        kernel: KernelKind,
        launch: LaunchConfig,
        population: usize,
        work: f64,
    ) -> f64 {
        self.cpu_time_us(kernel, population, work) / self.kernel_time_us(kernel, launch, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimingModel {
        TimingModel::default()
    }

    #[test]
    fn device_time_grows_with_work() {
        let m = model();
        let lc = LaunchConfig::for_population(15_360);
        let t1 = m.kernel_time_us(KernelKind::Ccd, lc, 100.0);
        let t2 = m.kernel_time_us(KernelKind::Ccd, lc, 1_000.0);
        assert!(t2 > t1);
    }

    #[test]
    fn device_time_is_nearly_flat_below_saturation() {
        // The device has capacity for 30 SMs x 4 blocks x 128 threads =
        // 15,360 resident CCD threads; going from 512 to 7,680 threads
        // should barely change the modeled time (one wave either way),
        // while the CPU baseline scales linearly.  This is the Figure 4
        // behaviour.
        let m = model();
        let work = 2_000.0;
        let small = m.kernel_time_us(KernelKind::Ccd, LaunchConfig::for_population(512), work);
        let large = m.kernel_time_us(KernelKind::Ccd, LaunchConfig::for_population(7_680), work);
        assert!(
            large < small * 2.0,
            "device should not scale linearly below saturation"
        );
        let cpu_small = m.cpu_time_us(KernelKind::Ccd, 512, work);
        let cpu_large = m.cpu_time_us(KernelKind::Ccd, 7_680, work);
        assert!(
            (cpu_large / cpu_small - 15.0).abs() < 1e-9,
            "CPU scales linearly"
        );
    }

    #[test]
    fn full_population_speedup_is_in_the_papers_range() {
        // At the paper's operating point (15,360 threads, 128 per block,
        // register-limited 50% occupancy) the modeled speedup for the
        // dominant kernels should land in the tens — the paper reports ~40.
        let m = model();
        let lc = LaunchConfig::for_population(15_360);
        for kernel in [KernelKind::Ccd, KernelKind::EvalDist, KernelKind::EvalVdw] {
            let s = m.speedup(kernel, lc, 15_360, 3_000.0);
            assert!(
                s > 20.0 && s < 80.0,
                "{kernel:?} speedup {s} outside plausible band"
            );
        }
    }

    #[test]
    fn tiny_populations_underutilize_the_device() {
        let m = model();
        let s_small = m.speedup(
            KernelKind::Ccd,
            LaunchConfig::for_population(256),
            256,
            3_000.0,
        );
        let s_large = m.speedup(
            KernelKind::Ccd,
            LaunchConfig::for_population(15_360),
            15_360,
            3_000.0,
        );
        assert!(
            s_small < s_large,
            "small populations must not reach full speedup"
        );
    }

    #[test]
    fn zero_block_launch_costs_only_overhead() {
        let m = model();
        let lc = LaunchConfig {
            blocks: 0,
            threads_per_block: 128,
        };
        assert_eq!(
            m.kernel_time_us(KernelKind::Ccd, lc, 100.0),
            m.device.launch_overhead_us
        );
    }

    #[test]
    fn higher_occupancy_kernels_run_relatively_faster() {
        // Same work, same launch: the 100%-occupancy fitness kernel hides
        // latency better than the register-bound CCD kernel, so its time per
        // cycle-of-work is smaller.
        let m = model();
        let lc = LaunchConfig::for_population(15_360);
        let work = 1_000.0;
        let t_ccd =
            m.kernel_time_us(KernelKind::Ccd, lc, work) / KernelKind::Ccd.cycles_per_work_unit();
        let t_fit = m.kernel_time_us(KernelKind::FitAssgPopulation, lc, work)
            / KernelKind::FitAssgPopulation.cycles_per_work_unit();
        assert!(t_fit < t_ccd);
    }
}
