"""Cluster-scale (macro) simulation.

The detailed discrete-event simulator cannot step 16,384 ranks through
per-descriptor NIC events in reasonable time, so application-scale results
(Figures 5-9, Table 1) come from this closed-form model.  Each run builds
one plan per phase (message costs, walls, profile rows) and keeps the
per-rank clock as one float while every rank holds the same time; only
compute imbalance, Linux noise and halo spread make it a numpy array of
per-rank times.  It keeps the paper's two nonlinearities first-class:

* **offload contention** — every driver syscall from McKernel ranks is a
  job for the node's few OS CPUs; FIFO queueing plus per-dispatch context
  switching inflate per-call latency, which dependency-chained
  communication (sweeps, rendezvous handshakes) turns into critical-path
  time;
* **noise amplification** — Linux residual jitter is converted into
  everyone's time by synchronizing collectives (max over ranks).

Its per-message and per-syscall costs are built from the *same*
``repro.params`` constants as the detailed simulator, and
``tests/cluster/test_calibration.py`` checks the two agree where both
apply.
"""

from .model import CommCostModel, MsgCost
from .run import MacroResult, simulate_app

__all__ = ["CommCostModel", "MacroResult", "MsgCost", "simulate_app"]
