"""Calibration utilities.

Three calibration targets exist:

1. **Paper anchors** — check the Frontier model against the
   numbers the paper reports: ~294 GF/s per GCD of mixed-precision
   rating at one node, 78% weak-scaling efficiency at 9408 nodes, a
   ~1.6x overall penalized speedup, and the 0.968 validation penalty.
2. **This host** — measure NumPy streaming bandwidth and per-call
   dispatch overhead so the same byte/flop model can predict the *real*
   laptop-scale runs, closing the loop between model and measurement.
3. **The network** — fold the distributed phase's *measured* halo
   counters (messages, wire bytes, wall clock inside the exchange
   plans) into a least-squares alpha-beta fit, so the network model's
   per-message latency and per-byte cost come from this machine's
   actual transport rather than the Frontier datasheet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.perf.machine import MachineSpec
from repro.perf.scaling import ScalingModel


@dataclass(frozen=True)
class AnchorReport:
    """Model outputs at the paper's anchor points."""

    gflops_per_gcd_1node_mxp: float
    gflops_per_gcd_1node_double: float
    efficiency_9408: float
    total_pflops_9408: float
    speedup_1node: float
    speedup_9408: float
    penalty: float

    #: Paper values for side-by-side reporting.
    PAPER = {
        "gflops_per_gcd_1node_mxp": 293.6,  # 17.23 PF / 75264 / 0.78
        "efficiency_9408": 0.78,
        "total_pflops_9408": 17.23,
        "speedup_1node": 1.6,
        "penalty": 2305.0 / 2382.0,
    }


def paper_anchor_report(model: ScalingModel | None = None) -> AnchorReport:
    """Evaluate the Frontier model at the paper's anchor points."""
    model = model or ScalingModel()
    g1 = model.gflops_per_gcd("mxp", 1 * model.machine.gcds_per_node)
    d1 = model.gflops_per_gcd("double", 1 * model.machine.gcds_per_node)
    rows = model.weak_scaling_series([1, 9408])
    return AnchorReport(
        gflops_per_gcd_1node_mxp=g1,
        gflops_per_gcd_1node_double=d1,
        efficiency_9408=rows[1]["efficiency"],
        total_pflops_9408=rows[1]["total_pflops"],
        speedup_1node=model.speedup_overall(8),
        speedup_9408=model.speedup_overall(9408 * model.machine.gcds_per_node),
        penalty=model.penalty,
    )


# ----------------------------------------------------------------------
# Host calibration (real NumPy kernels on this machine)
# ----------------------------------------------------------------------
def measure_stream_bandwidth(nbytes: int = 1 << 26, repeats: int = 5) -> float:
    """Triad-style streaming bandwidth of this host, bytes/s."""
    n = nbytes // 8
    a = np.zeros(n)
    b = np.random.default_rng(0).random(n)
    c = np.random.default_rng(1).random(n)
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.multiply(b, 2.0, out=a)
        a += c
        dt = time.perf_counter() - t0
        best = min(best, dt)
    # Triad moves 4 arrays' worth per pass (b read, c read, a write x2).
    return 4 * n * 8 / best


def measure_dispatch_latency(repeats: int = 2000) -> float:
    """Per-call NumPy dispatch overhead (the host's 'launch latency')."""
    a = np.zeros(8)
    t0 = time.perf_counter()
    for _ in range(repeats):
        np.add(a, 1.0, out=a)
    return (time.perf_counter() - t0) / repeats


@dataclass(frozen=True)
class NetworkFit:
    """Alpha-beta model fitted from measured halo counters.

    ``seconds ~ alpha * messages + beta * bytes`` — alpha is the
    per-message latency, beta the inverse effective wire bandwidth.
    """

    alpha: float  # seconds per message
    beta: float  # seconds per byte
    residual: float  # RMS of the least-squares fit (seconds)
    nsamples: int

    def time(self, messages: float, nbytes: float) -> float:
        """Predicted exchange seconds for one (messages, bytes) load."""
        return self.alpha * messages + self.beta * nbytes

    @property
    def bandwidth(self) -> float:
        """Effective wire bandwidth implied by the fit (bytes/s)."""
        return 1.0 / self.beta if self.beta > 0 else np.inf


def fit_alpha_beta(
    samples: "Iterable[tuple[float, float, float]]",
    bandwidth_prior: float | None = None,
) -> NetworkFit:
    """Least-squares alpha-beta fit over measured exchange windows.

    Each sample is ``(messages, bytes, seconds)`` — e.g. one
    distributed-phase run's halo counters
    (:func:`halo_samples_from_records`).  Without a prior, a single
    sample cannot separate latency from bandwidth, so alpha collapses
    to zero and beta to ``seconds / bytes`` (the aggregate
    cost-per-byte); two or more samples with different message/byte
    mixes resolve both.  Negative solutions are clamped to zero (a
    latency below zero is measurement noise, not physics).

    ``bandwidth_prior`` (bytes/s) is a measured memory-bandwidth figure
    — e.g. :func:`repro.perf.machine.probe_machine`'s copy bandwidth,
    the transport floor of the thread-SPMD memcpy exchanges.  It breaks
    the single-sample degeneracy (beta pinned to ``1 / prior``, the
    latency residual attributed to alpha) and replaces a degenerate
    multi-sample beta that clamped to zero.
    """
    rows = [(float(m), float(b), float(s)) for m, b, s in samples]
    if not rows:
        raise ValueError("fit_alpha_beta needs at least one sample")
    prior_beta = (
        1.0 / bandwidth_prior
        if bandwidth_prior is not None and bandwidth_prior > 0
        else None
    )
    if len(rows) == 1:
        m, b, s = rows[0]
        if prior_beta is not None and m > 0:
            beta = prior_beta
            alpha = max((s - beta * b) / m, 0.0)
            return NetworkFit(
                alpha=alpha, beta=beta, residual=0.0, nsamples=1
            )
        beta = s / b if b > 0 else 0.0
        return NetworkFit(alpha=0.0, beta=beta, residual=0.0, nsamples=1)
    A = np.array([[m, b] for m, b, _ in rows])
    y = np.array([s for _, _, s in rows])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    alpha, beta = (max(float(v), 0.0) for v in sol)
    if beta == 0.0 and prior_beta is not None:
        beta = prior_beta
        resid_y = y - A @ [0.0, beta]
        msgs = A[:, 0]
        denom = float(msgs @ msgs)
        alpha = max(float(msgs @ resid_y) / denom, 0.0) if denom > 0 else 0.0
    resid = float(np.sqrt(np.mean((A @ [alpha, beta] - y) ** 2)))
    return NetworkFit(alpha=alpha, beta=beta, residual=resid, nsamples=len(rows))


def halo_samples_from_records(
    records: Iterable,
) -> list[tuple[float, float, float]]:
    """Measured (messages, bytes, seconds) halo samples per record.

    Accepts :class:`~repro.core.benchmark.DistributedPhaseMetrics`
    objects or their ``to_dict`` dictionaries (the benchmark JSON the
    CI gate stores), skipping serial records with no traffic.

    A record that carries the batched segment's ``panel_halo_*``
    counters contributes a *second* sample: the wide exchange moves
    the same bytes in ~panel× fewer messages, so the panel window's
    message/byte mix differs from the looped window's — exactly the
    rank-deficiency breaker :func:`fit_alpha_beta` needs to separate
    per-message latency (alpha) from per-byte cost (beta) out of a
    single benchmark run.
    """
    fields = (
        "send_messages",
        "send_bytes",
        "halo_seconds",
        "panel_halo_messages",
        "panel_halo_bytes",
        "panel_halo_seconds",
    )
    windows = (
        ("send_messages", "send_bytes", "halo_seconds"),
        ("panel_halo_messages", "panel_halo_bytes", "panel_halo_seconds"),
    )
    samples = []
    for rec in records:
        if not isinstance(rec, dict):
            rec = {k: getattr(rec, k, None) for k in fields}
        for msg_key, byte_key, sec_key in windows:
            messages = rec.get(msg_key) or 0
            nbytes = rec.get(byte_key) or 0
            seconds = rec.get(sec_key) or 0.0
            if messages > 0 and nbytes > 0 and seconds > 0:
                samples.append(
                    (float(messages), float(nbytes), float(seconds))
                )
    return samples


def fit_network_from_records(records: Iterable) -> NetworkFit:
    """Alpha-beta fit straight from distributed-phase records."""
    samples = halo_samples_from_records(records)
    if not samples:
        raise ValueError("no usable halo samples (serial runs carry no wire traffic)")
    return fit_alpha_beta(samples)


def machine_with_network_fit(machine: MachineSpec, fit: NetworkFit) -> MachineSpec:
    """The machine spec with its network knobs replaced by the fit.

    ``net_latency`` takes the fitted per-message alpha and ``nic_bw``
    the fitted effective bandwidth, so the scaling model's halo times
    are grounded in this machine's measured transport.  A degenerate
    single-sample fit (alpha 0) keeps the spec's latency.
    """
    updates = {}
    if fit.alpha > 0:
        updates["net_latency"] = fit.alpha
    if fit.beta > 0:
        updates["nic_bw"] = fit.bandwidth
    return machine.with_updates(**updates) if updates else machine


def calibrate_host(name: str = "this-host-numpy") -> MachineSpec:
    """A MachineSpec describing this host's NumPy execution engine.

    Lets the same kernel model predict real laptop-scale motif times,
    which tests compare against :class:`~repro.util.timers.MotifTimers`
    measurements.
    """
    bw = measure_stream_bandwidth()
    latency = measure_dispatch_latency()
    return MachineSpec(
        name=name,
        mem_bw=bw,
        mem_eff=1.0,  # bw is already the measured achievable figure
        flops_fp64=5e10,  # generous scalar-ish peaks; kernels here are
        flops_fp32=1e11,  # bandwidth-bound so these rarely bind
        flops_fp16=1e11,
        launch_latency=latency,
        pcie_bw=bw,  # no device boundary on the host
        nic_bw=bw,
        net_latency=5e-6,
        allreduce_hop_latency=2e-6,
        allreduce_saturation_ranks=64.0,
        allreduce_congestion_exp=1.0,
        imbalance_per_log2_nodes=0.0,
        csr_bw_efficiency=0.8,
        gcds_per_node=1,
    )
