// Measures the real kernels of this library (raycasting, quantization, LIC)
// on the host and scales a Machine description from them. The DES figures
// use the paper-calibrated Machine by default; the calibration path
// documents how those constants map onto measured kernel rates, so the
// model is anchored to running code rather than hand-picked numbers alone.
#pragma once

#include "pipesim/machine.hpp"

namespace qv::pipesim {

struct KernelRates {
  double render_samples_per_sec = 0.0;  // raycaster volume samples / s
  double quantize_bytes_per_sec = 0.0;  // 32->8 bit quantization throughput
  double lic_pixels_per_sec = 0.0;      // input-rank LIC step pixels / s
};

// Quick micro-measurements on synthetic inputs (a few hundred ms total).
KernelRates measure_kernel_rates();

// Derived figure: what Tr would be for `pixels` at `procs` renderers given
// `samples_per_ray` average depth complexity and a per-processor rate.
double render_seconds_from_rate(const KernelRates& rates, int procs, int pixels,
                                double samples_per_ray);

}  // namespace qv::pipesim
