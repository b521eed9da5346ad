"""SVG bytes: red dots read from the subadditivity failures of the
minimality scan ``minimality._failures`` (Δπ at the vertices, or with jumps
its limits along the faces, in integers), and coordinates formatted in
integers give the same documents as before."""

import hashlib
from fractions import Fraction

import pytest

from groupcut import affine_combine, make_pwl
from groupcut.svg import _fmt, plot_2d_diagram, plot_function

F = Fraction


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# sha256 of plot_2d_diagram when its red dots came from one delta_pi call
# per vertex and _fmt multiplied Fractions.
DIAGRAM_SHA256 = {
    "psi_3": "0b74b12aae7dbe3098c73b0c12dbc6880a075e3cc35b171e5c3400e01dc65f49",
    "midpoint": "ff448cb8a36d37aeb8be95bbaff0e969ac9911069306015e0ec0bfe98c20b4ec",
    "dented": "eef5a7f009babd4d29efefc864e7825f0f8a7c587dbacd64b475d64e1101a64a",
    "dented_psi_2": "8b8d550e84dd65e0d7ba6cad43593324c540418ad6531e1b43298d56668fe8b0",
    "jump_violator": "a66e48b1ca01112084344c74aa036a75affeaf72ee1cbdd6c78a01b5222bb07e",
}


@pytest.fixture(scope="module")
def diagram_inputs(gmic45, psi45_stages):
    f = F(4, 5)
    return {
        "psi_3": psi45_stages[3],
        "midpoint": affine_combine(F(1, 2), gmic45, F(1, 2), psi45_stages[1]),
        "dented": make_pwl(
            f,
            [0, F(1, 5), F(2, 5), f],
            [(0, 0, 0), (F(1, 5), F(1, 5), F(1, 5)), (F(3, 5), F(3, 5), F(3, 5)), (1, 1, 1)],
        ),
        "dented_psi_2": affine_combine(F(3, 2), gmic45, F(-1, 2), psi45_stages[2]),
        "jump_violator": make_pwl(
            F(1, 2), [0, F(1, 4), F(1, 2)], [(1, 0, 0), (F(5, 8), F(1, 2), F(3, 8)), (1, 1, 0)]
        ),
    }


@pytest.mark.parametrize("name", sorted(DIAGRAM_SHA256))
def test_diagram_bytes_unchanged(diagram_inputs, name):
    assert sha256(plot_2d_diagram(diagram_inputs[name])) == DIAGRAM_SHA256[name]


def test_red_dots_present(diagram_inputs):
    # The continuous dented inputs do have violations to draw.
    assert plot_2d_diagram(diagram_inputs["dented"]).count('fill="red"') == 1
    assert plot_2d_diagram(diagram_inputs["dented_psi_2"]).count('fill="red"') == 24


FUNCTION_SHA256 = {
    "psi_3": "4878908c15dec893259fcd5103003b0798fbe84df063594b02c0b9ab6b75f020",
    "jump_violator": "33a406c924bf21206c2e4e3a0455653da6e314ee90ac31be0770a29b9c3dcbcf",
    "negative": "2d581e7d568ab3c3169cd03ae916f6d6c7b7a80363f5e4625d2b54403f6f606b",
}


def test_function_bytes_unchanged(diagram_inputs):
    inputs = {
        "psi_3": diagram_inputs["psi_3"],
        "jump_violator": diagram_inputs["jump_violator"],
        "negative": make_pwl(
            F(1, 3), [0, F(1, 7)], [(F(-2, 3), 0, F(-1, 9)), (F(5, 11), F(-3, 13), 1)]
        ),
    }
    for name, fn in inputs.items():
        assert sha256(plot_function(fn)) == FUNCTION_SHA256[name], name


def fmt_reference(x):
    n = int(Fraction(x) * 10**6)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**6}.{n % 10**6:06d}"


def test_fmt_truncates_toward_zero():
    values = [0, 1, -1, 90, F(1, 3), F(-1, 3), F(-7, 2), F(2, 10**7), F(-1, 10**7),
              F(-10**6 - 1, 10**6), F(123456789, 1000), F(-123456789, 1000)]
    for x in values:
        assert _fmt(x) == fmt_reference(x), x
    assert _fmt(F(-1, 10**7)) == "0.000000"
    assert _fmt(F(-1, 3)) == "-0.333333"
