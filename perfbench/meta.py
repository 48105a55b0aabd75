"""Run metadata: source revision, host parallelism, library versions."""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import time

#: Busy-loop iterations per calibration spin (~0.4 s of CPU), and how
#: many one-vs-two rounds the probe takes the median of.
CALIBRATION_SPIN = 5_000_000
CALIBRATION_ROUNDS = 3


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _spinner(conn) -> None:
    """Spin ``n`` iterations per request until sent ``None``; reply with
    the time each spin took."""
    while (n := conn.recv()) is not None:
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x += i
        conn.send(time.perf_counter() - t0)
    conn.close()


def effective_parallelism(n: int = CALIBRATION_SPIN,
                          rounds: int = CALIBRATION_ROUNDS) -> tuple[float, float]:
    """How many CPU-bound processes really run at once: per round, the
    time one spinning process takes, times two, over the time the
    slower of two concurrent ones takes (2.0 on two free cores, 1.0 on
    one).  Returns ``(median over rounds capped at 2, raw median)``; a
    raw reading above 2 is noise (the host changed speed mid-round)."""
    # Forked, not spawned: the probe runs before this process starts any
    # thread, and spawn would leave a resource-tracker process behind.
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for _ in range(2):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_spinner, args=(theirs,))
            proc.start()
            theirs.close()
            conns.append(ours)
            procs.append(proc)
        ratios = []
        for _ in range(rounds):
            conns[0].send(n)
            one = conns[0].recv()
            for conn in conns:
                conn.send(n)
            two = max(conn.recv() for conn in conns)
            ratios.append(2.0 * one / two)
        for conn in conns:
            conn.send(None)
    finally:
        for proc in procs:
            proc.join(30)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    raw = statistics.median(ratios)
    return min(raw, 2.0), raw


def run_metadata(root: str, seed: int) -> dict:
    import numpy as np

    parallelism, raw = effective_parallelism()
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "effective_parallelism": round(parallelism, 3),
        "effective_parallelism_raw": round(raw, 3),
    }
