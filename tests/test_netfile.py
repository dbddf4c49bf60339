import numpy as np
import pytest

from netmodal.netfile import (
    NetworkFileError,
    parse_network_text,
    parse_spectrum_filename,
    read_spectrum_csv,
    serialize_network,
    spectrum_filename,
    write_spectrum_csv,
)
from netmodal.network import (
    RationalBlock,
    SeriesRL,
    ShuntCapacitor,
    ShuntRLC,
    SpectrumRef,
)

MINIMAL = """
[meta]
name = demo
frequency_unit = rads

[node]
id = 1

[shunt]
node = 1
kind = rlc
r = 1.0
l = 1.0
c = 1.0
"""


class TestParsing:
    def test_minimal_file(self):
        doc = parse_network_text(MINIMAL)
        assert doc.name == "demo"
        assert doc.frequency_unit == "rads"
        assert doc.network.component("A1").kind == ShuntRLC(1.0, 1.0, 1.0)

    def test_default_names_and_ports(self):
        doc = parse_network_text(MINIMAL)
        assert doc.network.nodes[0].ports == 1
        assert doc.network.shunts[0].name == "A1"

    def test_branch_and_named_components(self, three_node_doc):
        net = three_node_doc.network
        assert {b.name for b in net.branches} == {"B1-2", "B1-3", "B2-3"}
        assert net.component("B2-3").kind == SeriesRL(0.5, 0.2)

    def test_rational_block_shunt(self):
        text = MINIMAL + "\n[shunt]\nnode = 1\nkind = rational\nnum = 0.0 2.0\nden = 1.0\n"
        doc = parse_network_text(text)
        kind = doc.network.component("A1_2").kind
        assert isinstance(kind, RationalBlock)
        assert kind.blocks[0][0](1j) == pytest.approx(2j)

    def test_spectrum_reference(self):
        text = MINIMAL + "\n[shunt]\nnode = 1\nkind = spectrum\nfile = Z_1_1.csv\n"
        doc = parse_network_text(text)
        assert doc.network.component("A1_2").kind == SpectrumRef("Z_1_1.csv")

    def test_hz_unit_conversion(self):
        doc = parse_network_text(MINIMAL.replace("rads", "hz"))
        assert doc.omega_from_user(1.0) == pytest.approx(2 * np.pi)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_network_text("# leading comment\n" + MINIMAL + "\n# trailing\n")
        assert doc.name == "demo"


class TestParseErrors:
    def test_unknown_section_names_it(self):
        bad = MINIMAL.replace("[shunt]", "[shunts]")
        with pytest.raises(NetworkFileError, match=r"unknown section \[shunts\]"):
            parse_network_text(bad)

    def test_error_carries_position(self):
        bad = MINIMAL.replace("[shunt]", "[shunts]")
        try:
            parse_network_text(bad)
        except NetworkFileError as exc:
            assert exc.line == 9
            assert exc.column >= 1
        else:
            pytest.fail("expected a parse error")

    def test_unknown_key_rejected(self):
        with pytest.raises(NetworkFileError, match="unknown key 'q'"):
            parse_network_text(MINIMAL + "\n[shunt]\nnode = 1\nkind = c\nc = 1.0\nq = 2\n")

    def test_missing_required_key(self):
        with pytest.raises(NetworkFileError, match="missing required key"):
            parse_network_text(MINIMAL + "\n[shunt]\nnode = 1\n")

    def test_bad_number(self):
        with pytest.raises(NetworkFileError, match="expected a number"):
            parse_network_text(MINIMAL.replace("r = 1.0", "r = abc"))

    def test_bad_unit(self):
        with pytest.raises(NetworkFileError, match="frequency_unit"):
            parse_network_text(MINIMAL.replace("rads", "radians"))

    def test_duplicate_meta(self):
        with pytest.raises(NetworkFileError, match="exactly one"):
            parse_network_text(MINIMAL + "\n[meta]\nname = x\nfrequency_unit = hz\n")

    def test_unknown_node_in_shunt(self):
        with pytest.raises(NetworkFileError, match="unknown node 7"):
            parse_network_text(MINIMAL.replace("node = 1\nkind", "node = 7\nkind"))

    def test_negative_component_value(self):
        with pytest.raises(NetworkFileError, match="non-negative"):
            parse_network_text(MINIMAL.replace("r = 1.0", "r = -1.0"))

    @pytest.mark.parametrize("key, value, message", [
        ("l", "0.0", "L must be strictly positive"),
        ("c", "-1.0", "C must be strictly positive"),
    ])
    def test_sign_error_names_the_parameter(self, key, value, message):
        with pytest.raises(NetworkFileError, match=message):
            parse_network_text(MINIMAL.replace(f"{key} = 1.0", f"{key} = {value}"))

    def test_key_before_section(self):
        with pytest.raises(NetworkFileError, match="before any section"):
            parse_network_text("a = b\n" + MINIMAL)


TWO_NODES = """
[meta]
name = kinds
frequency_unit = hz

[node]
id = 1
ports = {ports}

[node]
id = 2
ports = {ports}
"""
DQ_ENTRIES = ("num_11 = 0.4 1.0\nden_11 = 1.0\nnum_12 = 0.2\nden_12 = 1.0\n"
              "num_21 = -0.2\nden_21 = 1.0\nnum_22 = 0.3 0.5\nden_22 = 1.0 0.25\n")
DQ_SHUNTS = "".join(f"\n[shunt]\nnode = {k}\nkind = rational\n{DQ_ENTRIES}" for k in (1, 2))
# one case per kind keyword (and per section it may appear in): the extra
# sections, the port width, the component under test and its class
KIND_CASES = {
    "rlc-shunt": ("\n[shunt]\nnode = 1\nkind = rlc\nr = 0.5\nl = 1.5\nc = 0.25\n"
                  "\n[shunt]\nnode = 2\nkind = c\nc = 2.0\n", 1, "A1", ShuntRLC),
    "series-rl-shunt": ("\n[shunt]\nnode = 1\nkind = series-rl\nr = 0.1\nl = 0.7\n"
                        "\n[shunt]\nnode = 2\nkind = c\nc = 2.0\n", 1, "A1", SeriesRL),
    "c-shunt": ("\n[shunt]\nnode = 1\nkind = c\nc = 0.3\n"
                "\n[shunt]\nnode = 2\nkind = c\nc = 2.0\n", 1, "A1", ShuntCapacitor),
    "series-rl-branch": ("\n[shunt]\nnode = 1\nkind = c\nc = 1.0\n"
                         "\n[branch]\nfrom = 1\nto = 2\nkind = series-rl\nr = 0.2\nl = 0.4\n",
                         1, "B1-2", SeriesRL),
    "rational-branch": ("\n[shunt]\nnode = 1\nkind = c\nc = 1.0\n"
                        "\n[branch]\nfrom = 1\nto = 2\nkind = rational\nnum = 1.0\n"
                        "den = 0.2 0.4\n", 1, "B1-2", RationalBlock),
    "rational-shunt": ("\n[shunt]\nnode = 1\nkind = rational\nnum = 0.5 2.0\nden = 1.0 0.1\n"
                       "\n[shunt]\nnode = 2\nkind = c\nc = 2.0\n", 1, "A1", RationalBlock),
    "rational-2port-shunt": (DQ_SHUNTS, 2, "A2", RationalBlock),
    "rational-2port-branch": (DQ_SHUNTS + "\n[branch]\nfrom = 1\nto = 2\nkind = rational\n"
                              + DQ_ENTRIES, 2, "B1-2", RationalBlock),
    "series-rl-2port-branch": (DQ_SHUNTS + "\n[branch]\nfrom = 1\nto = 2\nkind = series-rl\n"
                               "r = 0.2\nl = 0.4\n", 2, "B1-2", SeriesRL),
    "spectrum-shunt": ("\n[shunt]\nnode = 1\nkind = spectrum\nfile = Z_1_1.csv\n"
                       "\n[shunt]\nnode = 2\nkind = c\nc = 2.0\n", 1, "A1", SpectrumRef),
}


def kind_fields(kind):
    """Comparable contents of a component kind (rational entries have no ==)."""
    if isinstance(kind, RationalBlock):
        return [(e.num.coeffs.tolist(), e.den.coeffs.tolist())
                for row in kind.blocks for e in row]
    return kind


class TestRoundTrip:
    @pytest.mark.parametrize("case", sorted(KIND_CASES))
    def test_every_kind_round_trips(self, case):
        sections, ports, name, cls = KIND_CASES[case]
        doc = parse_network_text(TWO_NODES.format(ports=ports) + sections)
        kind = doc.network.component(name).kind
        assert type(kind) is cls
        text = serialize_network(doc)
        again = parse_network_text(text)
        assert serialize_network(again) == text
        for comp in doc.network.components():
            assert kind_fields(again.network.component(comp.name).kind) == \
                kind_fields(comp.kind)

    def test_serialize_parse_is_identity_on_normalized_form(self, three_node_doc):
        once = serialize_network(three_node_doc)
        twice = serialize_network(parse_network_text(once))
        assert once == twice

    def test_round_trip_preserves_values(self, three_node_doc):
        reparsed = parse_network_text(serialize_network(three_node_doc))
        assert reparsed.network.shunts == three_node_doc.network.shunts
        assert reparsed.network.branches == three_node_doc.network.branches


class TestSpectrumCSV:
    def test_filename_round_trip(self):
        assert spectrum_filename(2, 3) == "Z_2_3.csv"
        assert parse_spectrum_filename("Z_2_3.csv") == (2, 3)
        assert parse_spectrum_filename("other.csv") is None

    def test_write_read_round_trip(self, tmp_path):
        freq = np.logspace(-1, 1, 40)
        values = (1 + 2j) / (1j * freq + 0.5)
        path = tmp_path / "Z_1_1.csv"
        with open(path, "w") as fh:
            write_spectrum_csv(fh, freq, values)
        back_f, back_v = read_spectrum_csv(path)
        assert np.allclose(back_f, freq, rtol=1e-11)
        assert np.allclose(back_v, values, rtol=1e-11)

    def test_header_is_exact(self, tmp_path):
        path = tmp_path / "Z_1_1.csv"
        path.write_text("freq,re,im\n1.0,0.0,0.0\n2.0,0.0,0.0\n")
        with pytest.raises(NetworkFileError, match="header must be exactly"):
            read_spectrum_csv(path)

    def test_rows_must_ascend(self, tmp_path):
        path = tmp_path / "Z_1_1.csv"
        path.write_text("freq_hz,re,im\n2.0,0.0,0.0\n1.0,0.0,0.0\n")
        with pytest.raises(NetworkFileError, match="ascend"):
            read_spectrum_csv(path)
