"""Network description files and spectrum CSV input/output.

The network file is a strict sectioned key/value document: one ``[meta]``
section, then repeated ``[node]``, ``[shunt]`` and ``[branch]`` sections.
Unknown sections or keys are rejected with the offending line and column.
Parsing then serializing yields a normalized form that round-trips exactly.

Spectrum files carry one impedance-matrix entry each (``Z_<k>_<i>.csv``,
header exactly ``freq_hz,re,im``) with strictly ascending frequencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .network import (
    Branch,
    NetworkModel,
    Node,
    RationalBlock,
    SeriesRL,
    Shunt,
    ShuntCapacitor,
    ShuntRLC,
    SpectrumRef,
)
from .rational import RationalFunction

SPECTRUM_HEADER = "freq_hz,re,im"
_SECTION_RE = re.compile(r"^\[([^\]]*)\]\s*$")
_KEY_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)\s*=\s*(.*?)\s*$")

_KNOWN_SECTIONS = ("meta", "node", "shunt", "branch")
# Each ``kind`` keyword and its class.  An R/L/C class reads one key per
# parameter, the parameter name in lower case, in ``FIELDS`` order.
_KINDS = {
    "rlc": ShuntRLC,
    "series-rl": SeriesRL,
    "c": ShuntCapacitor,
    "rational": RationalBlock,
    "spectrum": SpectrumRef,
}
_KEYWORDS = {cls: keyword for keyword, cls in _KINDS.items()}
_SECTION_KINDS = {"shunt": tuple(_KINDS), "branch": ("series-rl", "rational")}


class NetworkFileError(ValueError):
    """Parse or schema violation, carrying the file position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class NetworkDocument:
    name: str
    frequency_unit: str  # "hz" or "rads"
    network: NetworkModel

    def omega_from_user(self, value: float) -> float:
        """Convert a user-facing frequency to rad/s per the declared unit."""
        return 2.0 * np.pi * value if self.frequency_unit == "hz" else value


def _float(raw: str, line: int, col: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise NetworkFileError(f"expected a number, got {raw!r}", line, col) from None
    if not np.isfinite(value):
        raise NetworkFileError(f"number must be finite, got {raw!r}", line, col)
    return value


def _float_list(raw: str, line: int, col: int) -> list:
    parts = raw.split()
    if not parts:
        raise NetworkFileError("expected a coefficient list", line, col)
    return [_float(p, line, col) for p in parts]


def _int(raw: str, line: int, col: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise NetworkFileError(f"expected an integer, got {raw!r}", line, col) from None


class _Section:
    def __init__(self, kind: str, line: int):
        self.kind = kind
        self.line = line
        self.items: dict = {}  # key -> (value str, line, col)

    def take(self, key: str, required: bool = False):
        entry = self.items.pop(key, None)
        if entry is None and required:
            raise NetworkFileError(
                f"[{self.kind}] section is missing required key {key!r}", self.line
            )
        return entry

    def reject_leftovers(self):
        for key, (_, line, col) in self.items.items():
            raise NetworkFileError(
                f"unknown key {key!r} in [{self.kind}] section", line, col
            )


def _split_sections(text: str):
    sections = []
    current: Optional[_Section] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        m = _SECTION_RE.match(stripped.strip())
        if m:
            name = m.group(1).strip()
            if name not in _KNOWN_SECTIONS:
                raise NetworkFileError(
                    f"unknown section [{name}]", lineno, raw.index("[") + 1
                )
            current = _Section(name, lineno)
            sections.append(current)
            continue
        m = _KEY_RE.match(stripped.strip())
        if not m:
            raise NetworkFileError("expected 'key = value' or '[section]'", lineno)
        if current is None:
            raise NetworkFileError("key/value pair before any section", lineno)
        key, value = m.group(1).lower(), m.group(2)
        if key in current.items:
            raise NetworkFileError(f"duplicate key {key!r}", lineno)
        col = raw.lower().index(key) + 1
        current.items[key] = (value, lineno, col)
    return sections


def _rational_suffix(width: int, p: int, q: int) -> str:
    """Key suffix of block entry (p, q): none for one port, ``_11`` ... else."""
    return "" if width == 1 else f"_{p+1}{q+1}"


def _parse_rational_entry(section: _Section, ports: int):
    def entry(p, q):
        suffix = _rational_suffix(ports, p, q)
        num = _float_list(*section.take("num" + suffix, required=True))
        den_entry = section.take("den" + suffix, required=True)
        den = _float_list(*den_entry)
        if not any(den):
            raise NetworkFileError("denominator must not be zero", *den_entry[1:])
        return RationalFunction(num, den)

    return RationalBlock(tuple(tuple(entry(p, q) for q in range(ports))
                               for p in range(ports)))


def _parse_kind(cls, section: _Section, ports: int):
    if cls is RationalBlock:
        return _parse_rational_entry(section, ports)
    if cls is SpectrumRef:
        return SpectrumRef(section.take("file", required=True)[0])
    return cls(*(_float(*section.take(name.lower(), required=True))
                 for name in cls.FIELDS))


def parse_network_text(text: str) -> NetworkDocument:
    sections = _split_sections(text)
    metas = [s for s in sections if s.kind == "meta"]
    if len(metas) != 1:
        line = metas[1].line if len(metas) > 1 else 1
        raise NetworkFileError("exactly one [meta] section is required", line)
    meta = metas[0]
    name_entry = meta.take("name", required=True)
    unit_entry = meta.take("frequency_unit", required=True)
    unit = unit_entry[0].lower()
    if unit not in ("hz", "rads"):
        raise NetworkFileError(
            "frequency_unit must be 'hz' or 'rads'", unit_entry[1], unit_entry[2]
        )
    meta.reject_leftovers()

    nodes = []
    ports_by_id = {}
    for s in sections:
        if s.kind != "node":
            continue
        ident = _int(*s.take("id", required=True))
        ports_entry = s.take("ports")
        ports = _int(*ports_entry) if ports_entry else 1
        if ports not in (1, 2):
            raise NetworkFileError("ports must be 1 or 2", *ports_entry[1:])
        s.reject_leftovers()
        if ident in ports_by_id:
            raise NetworkFileError(f"duplicate node id {ident}", s.line)
        ports_by_id[ident] = ports
        nodes.append(Node(ident, ports))
    if not nodes:
        raise NetworkFileError("at least one [node] section is required", 1)

    used_names = set()

    def unique_name(base: str, entry) -> str:
        if entry is not None:
            name = entry[0]
            if name in used_names:
                raise NetworkFileError(f"duplicate component name {name!r}", entry[1], entry[2])
        else:
            name = base
            suffix = 2
            while name in used_names:
                name = f"{base}_{suffix}"
                suffix += 1
        used_names.add(name)
        return name

    shunts, branches = [], []
    for s in sections:
        if s.kind not in _SECTION_KINDS:
            continue
        ends = [s.take(key, required=True)
                for key in (("node",) if s.kind == "shunt" else ("from", "to"))]
        ids = [_int(*entry) for entry in ends]
        for nid, entry in zip(ids, ends):
            if nid not in ports_by_id:
                raise NetworkFileError(f"unknown node {nid}", entry[1], entry[2])
        kind_entry = s.take("kind", required=True)
        keyword = kind_entry[0].lower()
        allowed = _SECTION_KINDS[s.kind]
        if keyword not in allowed:
            raise NetworkFileError(
                f"{s.kind} kind must be one of {', '.join(allowed)}",
                kind_entry[1], kind_entry[2],
            )
        default = f"A{ids[0]}" if s.kind == "shunt" else f"B{ids[0]}-{ids[1]}"
        name = unique_name(default, s.take("name"))
        try:
            kind = _parse_kind(_KINDS[keyword], s, ports_by_id[ids[0]])
        except NetworkFileError:
            raise
        except ValueError as exc:
            raise NetworkFileError(str(exc), s.line) from None
        s.reject_leftovers()
        if s.kind == "shunt":
            shunts.append(Shunt(ids[0], kind, name))
        else:
            branches.append(Branch(*ids, kind, name))

    try:
        net = NetworkModel(nodes, shunts, branches)
    except ValueError as exc:
        raise NetworkFileError(str(exc), 1) from None
    return NetworkDocument(name_entry[0], unit, net)


def parse_network_file(path) -> NetworkDocument:
    return parse_network_text(Path(path).read_text())


def _fmt(value: float) -> str:
    return repr(float(value))


def _serialize_kind(kind, lines: list) -> None:
    lines.append(f"kind = {_KEYWORDS[type(kind)]}")
    if isinstance(kind, SpectrumRef):
        lines.append(f"file = {kind.path}")
    elif isinstance(kind, RationalBlock):
        m = kind.width
        for p in range(m):
            for q in range(m):
                entry = kind.blocks[p][q]
                suffix = _rational_suffix(m, p, q)
                num = " ".join(_fmt(c.real) for c in entry.num.coeffs)
                den = " ".join(_fmt(c.real) for c in entry.den.coeffs)
                lines += [f"num{suffix} = {num}", f"den{suffix} = {den}"]
    else:
        lines += [f"{name.lower()} = {_fmt(value)}" for name, value in kind.params.items()]


def serialize_network(doc: NetworkDocument) -> str:
    """Normalized textual form: canonical section order, keys and floats."""
    lines = ["[meta]", f"name = {doc.name}", f"frequency_unit = {doc.frequency_unit}", ""]
    for node in sorted(doc.network.nodes, key=lambda n: n.id):
        lines += ["[node]", f"id = {node.id}", f"ports = {node.ports}", ""]
    for sh in sorted(doc.network.shunts, key=lambda s: (s.node, s.name)):
        lines += ["[shunt]", f"node = {sh.node}", f"name = {sh.name}"]
        _serialize_kind(sh.kind, lines)
        lines.append("")
    for br in sorted(doc.network.branches, key=lambda b: (b.node_a, b.node_b, b.name)):
        lines += ["[branch]", f"from = {br.node_a}", f"to = {br.node_b}",
                  f"name = {br.name}"]
        _serialize_kind(br.kind, lines)
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# spectrum CSV files


def spectrum_filename(k: int, i: int) -> str:
    return f"Z_{k}_{i}.csv"


_FILENAME_RE = re.compile(r"^Z_(\d+)_(\d+)\.csv$")


def parse_spectrum_filename(name: str):
    m = _FILENAME_RE.match(name)
    if not m:
        return None
    return int(m.group(1)), int(m.group(2))


def write_spectrum_csv(handle, freq_hz: np.ndarray, values: np.ndarray) -> None:
    handle.write(SPECTRUM_HEADER + "\n")
    for f, v in zip(freq_hz, values):
        handle.write(f"{f:.12g},{v.real:.12g},{v.imag:.12g}\n")


def read_spectrum_csv(path):
    """Returns (freq_hz, complex values); strict header and ascending rows."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0] != SPECTRUM_HEADER:
        raise NetworkFileError(
            f"{path.name}: header must be exactly {SPECTRUM_HEADER!r}", 1
        )
    freqs, values = [], []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row.strip():
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise NetworkFileError(f"{path.name}: expected three columns", lineno)
        f, re_part, im_part = (_float(p, lineno, 1) for p in parts)
        freqs.append(f)
        values.append(complex(re_part, im_part))
    if len(freqs) < 2:
        raise NetworkFileError(f"{path.name}: need at least two rows", max(2, len(lines)))
    freqs = np.asarray(freqs)
    if np.any(np.diff(freqs) <= 0):
        raise NetworkFileError(f"{path.name}: frequencies must ascend", 2)
    return freqs, np.asarray(values, dtype=complex)
