"""Spans around the public calls of the ckinv layers, recorded from outside.

:meth:`Tracer.install` replaces every public function and public method of the
layer modules (``intmat``, ``groups``, ``presented``, ``ck``, ``realize``)
by a wrapper that opens a span on entry and closes it on exit.  Names bound
elsewhere by ``from ... import`` (``realize`` binds ``validate``, ``ck``
binds ``is_exact_at``, the package binds nearly everything) are rebound to
the same wrappers, otherwise calls made through them would escape the
trace.  No library source changes; :meth:`Tracer.uninstall` restores
the originals.

Spans stay in memory, in flat arrays, and are summarised only when the run
ends.  A span's self time is its duration minus the durations of its child
spans; spans of one thread nest, so children never overlap.  The time the
tracer spends measuring kernel outputs (for ``intmat.peak_bits``) is taken
off the span clock, so it lands in no span.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("intmat", "groups", "presented", "ck", "realize")

# The elimination kernels: every Smith or Hermite reduction goes through one.
KERNELS = ("intmat.smith_diagonal", "intmat.smith_normal_form",
           "intmat.hermite_normal_form")


def _bits(values) -> int:
    return max((abs(int(x)).bit_length() for x in values), default=0)


class Tracer:
    """Records nested spans of one thread; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        self.active = True  # wrappers record only while set
        self._paused = 0.0
        self.max_dim = 0
        self.peak_bits = 0
        self._patches: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter() - self._paused)
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = perf_counter() - self._paused
        self._stack.pop()

    def _measure(self, matrix, out) -> None:
        """Largest input side and largest bit length of a kernel's output."""
        start = perf_counter()
        shape = getattr(matrix, "shape", None)
        if shape is None:
            shape = (len(matrix), len(matrix[0]) if len(matrix) else 0)
        self.max_dim = max(self.max_dim, *shape)
        if isinstance(out, tuple):  # smith_diagonal
            bits = _bits(out)
        else:  # SmithDecomposition or HermiteDecomposition
            bits = max(_bits(getattr(out, f).flat)
                       for f in ("u", "s", "v", "h") if hasattr(out, f))
        self.peak_bits = max(self.peak_bits, bits)
        self._paused += perf_counter() - start

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        kernel = name in KERNELS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if kernel:
                self._measure(args[0] if args else kwargs["m"], out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the layers' public calls; see the module docstring."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ckinv.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, meth, self.wrap(
                                f"{layer}.{obj.__name__}.{meth}", fn))
        for name, mod in list(sys.modules.items()):
            if name != "ckinv" and not name.startswith("ckinv."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self, root_name: str, under_name: str):
        """Per root span named ``root_name``: its duration, and per span name
        the calls and self time inside it; also the kernel calls nested
        under spans named ``under_name``."""
        n = len(self.name)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        under = [False] * n
        under_id = self._ids.get(under_name, -1)
        kernel_ids = {self._ids[k] for k in KERNELS if k in self._ids}
        roots = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                root[i] = root[p]
                under[i] = under[p] or self.name[p] == under_id
            elif self.names[self.name[i]] == root_name:
                roots[i] = {"duration_s": dur[i], "names": {},
                            "kernels_under": 0}
        for i in range(n):
            agg = roots.get(root[i])
            if agg is None:
                continue
            name = self.names[self.name[i]]
            calls, self_s = agg["names"].get(name, (0, 0.0))
            agg["names"][name] = (calls + 1, self_s + dur[i] - child[i])
            if under[i] and self.name[i] in kernel_ids:
                agg["kernels_under"] += 1
        return list(roots.values())
