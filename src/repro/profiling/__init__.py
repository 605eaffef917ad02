"""Kernel-level profiling (the paper's in-house McKernel profiler)."""

from .kernel_profiler import KernelProfile, profile_from_tracer

__all__ = ["KernelProfile", "profile_from_tracer"]
