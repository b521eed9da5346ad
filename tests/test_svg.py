import xml.etree.ElementTree as ET
from fractions import Fraction

from groupcut import make_pwl
from groupcut.svg import plot_2d_diagram, plot_function

F = Fraction


def parse(svg_text):
    return ET.fromstring(svg_text)


class TestPlotFunction:
    def test_well_formed(self, gmic45):
        root = parse(plot_function(gmic45))
        assert root.tag.endswith("svg")

    def test_deterministic(self, gmic45):
        assert plot_function(gmic45) == plot_function(gmic45)

    def test_jump_markers(self):
        fn = make_pwl(F(1, 2), [0, F(1, 2)], [(1, 0, 0), (1, 1, 0)])
        svg = plot_function(fn)
        parse(svg)
        assert "circle" in svg

    def test_no_float_noise(self, psi45_stages):
        svg = plot_function(psi45_stages[2])
        parse(svg)
        for token in svg.replace('"', " ").split():
            assert "e-" not in token.lower() or not token[0].isdigit()


class TestPlot2dDiagram:
    def test_well_formed(self, gmic45):
        root = parse(plot_2d_diagram(gmic45))
        assert root.tag.endswith("svg")

    def test_deterministic(self, gmic45):
        assert plot_2d_diagram(gmic45) == plot_2d_diagram(gmic45)

    def test_additive_faces_shown(self, gmic45):
        svg = plot_2d_diagram(gmic45)
        assert "#00aa00" in svg

    def test_violations_marked(self):
        d = F(1, 8)
        fn = make_pwl(
            F(1, 2),
            [0, F(1, 4), F(1, 2)],
            [(1, 0, 0), (F(1, 2) + d, F(1, 2), F(1, 2) - d), (1, 1, 0)],
        )
        svg = plot_2d_diagram(fn)
        parse(svg)
        assert '"red"' in svg

    def test_constant_function(self):
        # π ≡ 1: the margin graphs take the value range [1, 2], so the graph
        # runs at 10 + (2 - 1)·70 = 80 pixels from the edge.
        svg = plot_2d_diagram(make_pwl(F(1, 2), [0], [(1, 1, 1)]))
        parse(svg)
        assert '<line x1="90.000000" y1="80.000000" x2="360.000000" y2="80.000000" stroke="blue"' in svg
        assert '<line x1="80.000000" y1="630.000000" x2="80.000000" y2="360.000000" stroke="blue"' in svg

    def test_nontrivial_function(self, psm15):
        svg = plot_2d_diagram(psm15)
        parse(svg)
        assert "#00aa00" in svg
