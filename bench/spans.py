"""Outside-in tracing of chisigma: spans around the calls between its modules.

The tracer replaces module attributes with timing wrappers, so it sees
each call one module makes into another (``cli`` into ``io``,
``identify`` and ``synth``; ``identify`` into ``model`` and
``specfun``; ``synth`` into its own building blocks). Nothing inside
``src/chisigma`` changes. A hooked name that no longer exists is
recorded as missing, and the metrics built on it are left out.

Spans are kept in memory as (name, start, end, parent, thread); the
parent is the innermost open span of the same thread, so spans opened
in worker threads start at the top level of that thread.
"""

import gzip
import os
import threading
import time
from collections import defaultdict

import numpy as np

from fixtures import read_header


def _read_bytes(args):
    # Decoded voxel bytes the reader had to produce, from the file's header.
    path = str(args[0])
    with (gzip.open if path.endswith(".gz") else open)(path, "rb") as f:
        dims, dt, _, _ = read_header(f)
    return {"io.read_bytes_in": int(np.prod(dims)) * dt.itemsize}


def _written_bytes(args):
    return {"io.write_bytes_out": os.path.getsize(args[1])}


def _samples(args):
    return {"model.samples_in": int(np.size(args[0]))}


def _normals(args):
    voxels = int(np.size(getattr(args[0], "voxels", args[0])))
    return {"synth.voxels": voxels, "synth.normals_drawn": 2 * int(args[2]) * voxels}


# (module, attribute, span name, counter). The module is where the caller
# looks the name up, so the wrapper sees exactly the calls that module makes.
# A counter maps the call's positional arguments to counts to add.
HOOKS = (
    ("cli", "read_nifti", "io.read_nifti", _read_bytes),
    ("cli", "write_nifti", "io.write_nifti", _written_bytes),
    ("cli", "build_report", "io.build_report", None),
    ("cli", "write_report", "io.write_report", None),
    ("cli", "write_slice_csv", "io.write_slice_csv", None),
    ("cli", "estimate_volume", "identify.estimate_volume", None),
    ("cli", "simulate", "synth.simulate", None),
    ("identify", "estimate_slice", "identify.estimate_slice", None),
    ("identify", "sigma_upper_bound", "identify.sigma_upper_bound", None),
    ("identify", "estimate_sigma", "model.estimate_sigma", _samples),
    ("identify", "estimate_n_moments", "model.estimate_n_moments", _samples),
    ("identify", "estimate_n_mle", "model.estimate_n_mle", _samples),
    ("identify", "inv_gamma_p", "specfun.inv_gamma_p", None),
    ("synth", "build_phantom", "synth.build_phantom", None),
    ("synth", "build_tau", "synth.build_tau", None),
    ("synth", "corrupt", "synth.corrupt", _normals),
)


class Tracer:
    """Records spans and counts while installed; restores the modules on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.counts = defaultdict(int)
        self.hooked = set()
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None,
                               threading.get_ident()])
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx][1:3] = start, end

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                extra = counter(args)
                with self._lock:
                    for key, value in extra.items():
                        self.counts[key] += value
            return result
        return wrapper

    def __enter__(self):
        for mod_name, attr, name, counter in HOOKS:
            module = self.modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))
            self.hooked.add(name)
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def calls(self, prefix) -> int:
        return sum(1 for s in self.spans if s[0].startswith(prefix))

    def self_time(self, name, child_prefixes) -> float:
        """Duration of ``name`` spans minus their direct children with the given prefixes."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own and s[0].startswith(child_prefixes):
                own[s[3]] -= s[2] - s[1]
        return sum(own.values())

    def top_level(self, thread: int) -> float:
        """Time covered by spans with no parent, opened in ``thread``."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None and s[4] == thread)

    def records(self, phase: str) -> list:
        return [{"phase": phase, "name": n, "start": a, "end": b, "parent": p, "thread": t}
                for n, a, b, p, t in self.spans]
