"""Spans around the calls into netmodal's public functions.

The tracer replaces each traced function, wherever a netmodal module holds a
reference to it, with a wrapper that records a span: name, start, end, the
span that caused it, and a tag (the matrix or network size where one
applies).  Spans stay in memory and are written out once, at the end of the
run.  Nothing is installed unless the traced run asks for it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, module, attribute, tag of the call or None, count of the result or None)
TARGETS = (
    ("cli.main", "netmodal.cli", "main", None, None),
    ("netfile.parse", "netmodal.netfile", "parse_network_file", None, None),
    ("netfile.spectrum_io", "netmodal.netfile", "read_spectrum_csv", None, None),
    ("netfile.spectrum_io", "netmodal.netfile", "write_spectrum_csv", None, None),
    ("network.build_ynodal", "netmodal.network", "build_ynodal", None, None),
    ("network.build_zsys", "netmodal.network", "build_zsys", lambda a: a[0].size, None),
    ("rational.det", "netmodal.rational", "RationalMatrix.det", lambda a: a[0].dim, None),
    ("rational.pointwise_eval", "netmodal.rational", "RationalMatrix.__call__", None, None),
    ("rational.eval_grid", "netmodal.rational", "RationalMatrix.eval_grid", None, None),
    ("modes.find_modes", "netmodal.modes", "find_modes", None, len),
    ("modes.mode_artifacts", "netmodal.modes", "mode_artifacts", None, lambda r: 1),
    ("modes.residue_by_limit", "netmodal.modes", "residue_by_limit", None, None),
    ("greybox.mode_report", "netmodal.greybox", "mode_report", None, None),
    ("vectorfit.fit", "netmodal.vectorfit", "fit", None, None),
)


class Tracer:
    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self.spans = []  # [name index, start, end, parent span, tag]
        self.results = {name: 0 for name in self.names}
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, tag, count):
        index = self.names.index(name)
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1,
                      tag(args) if tag else None]
            spans.append(record)
            stack.append(sid)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                results[name] += count(out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in place; ``uninstall`` restores them."""
        for name, module_name, attr, tag, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, tag, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, tag, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "netmodal" or mod_name.startswith("netmodal.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_totals(self):
        """Per span name: total inclusive time of its outermost calls (calls
        not inside another call of the same name), and the same split by tag.
        Different layers nest: a det inside build_zsys counts in both."""
        spans = self.spans
        total, by_tag = {}, {}
        for record in spans:
            index, start, end, parent, tag = record
            p = parent
            while p >= 0 and spans[p][0] != index:
                p = spans[p][3]
            if p >= 0:
                continue
            name = self.names[index]
            total[name] = total.get(name, 0.0) + (end - start)
            if tag is not None:
                key = (name, tag)
                by_tag[key] = by_tag.get(key, 0.0) + (end - start)
        return total, by_tag

    def self_time(self, name: str) -> float:
        """Time inside calls of ``name`` not covered by their child spans."""
        spans = self.spans
        index = self.names.index(name)
        own = {sid: rec[2] - rec[1] for sid, rec in enumerate(spans) if rec[0] == index}
        for rec in spans:
            if rec[3] in own:
                own[rec[3]] -= rec[2] - rec[1]
        return sum(own.values())

    def count(self, name: str) -> int:
        index = self.names.index(name)
        return sum(1 for rec in self.spans if rec[0] == index)

    def dump(self, path, **meta) -> None:
        with open(path, "w") as handle:
            json.dump({**meta, "names": self.names, "spans": self.spans}, handle)
