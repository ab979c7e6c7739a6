"""Golden output of wide Super-Nodes: printed IR and ``supernode.*`` counters.

Each source stores ``A[i+lane]`` as one signed sum of the ``B`` arrays with
every lane listing the terms in its own order — 8 lanes x 8 terms and
4 lanes x 6 terms, in ``double`` and ``long``.  Under SN-SLP those lanes
are isomorphic only after leaf and trunk reordering across ``+``/``-``; LSLP
cannot reorder across the ``-``.  The test pins, per (source, config), a
sha256 of the printed IR of the compiled module and the compile's
``supernode.*`` counters, so any change in which moves the Super-Node search
makes, or in the code it emits, fails here.  Regenerate (after an
intentional change) with::

    PYTHONPATH=src python - <<'PY'
    import sys
    sys.path.insert(0, "tests")
    from test_golden_wide_supernode import CONFIGS, SOURCES, compile_digest
    for name in SOURCES:
        for config in CONFIGS:
            print(f"    ({name!r}, {config!r}): {compile_digest(name, config)!r},")
    PY

and paste the printed lines into ``EXPECTED``.
"""

import hashlib

import pytest

from repro.frontend import analyze, lower_program, parse_source
from repro.ir import print_module
from repro.machine.targets import DEFAULT_TARGET
from repro.vectorizer.pipeline import compile_module
from repro.vectorizer.slp import config_named

CONFIGS = ("SN-SLP", "LSLP")

_LANES_8X8 = """\
    A[i+0] = B4[i+0] + B7[i+0] + B0[i+0] - B5[i+0] + B3[i+0] + B1[i+0] - B6[i+0] - B2[i+0];
    A[i+1] = B3[i+1] + B0[i+1] + B1[i+1] - B2[i+1] + B4[i+1] + B7[i+1] - B6[i+1] - B5[i+1];
    A[i+2] = B7[i+2] + B4[i+2] + B1[i+2] - B5[i+2] - B2[i+2] + B0[i+2] + B3[i+2] - B6[i+2];
    A[i+3] = B7[i+3] - B6[i+3] + B4[i+3] + B0[i+3] + B3[i+3] + B1[i+3] - B2[i+3] - B5[i+3];
    A[i+4] = B1[i+4] + B7[i+4] + B3[i+4] - B2[i+4] + B0[i+4] - B5[i+4] - B6[i+4] + B4[i+4];
    A[i+5] = B3[i+5] + B4[i+5] - B5[i+5] - B6[i+5] + B7[i+5] - B2[i+5] + B1[i+5] + B0[i+5];
    A[i+6] = B0[i+6] - B2[i+6] + B7[i+6] + B3[i+6] + B1[i+6] - B5[i+6] + B4[i+6] - B6[i+6];
    A[i+7] = B0[i+7] + B4[i+7] + B1[i+7] - B6[i+7] - B5[i+7] - B2[i+7] + B3[i+7] + B7[i+7];
"""

_LANES_4X6 = """\
    A[i+0] = B0[i+0] + B2[i+0] + B3[i+0] - B4[i+0] - B1[i+0] + B5[i+0];
    A[i+1] = B0[i+1] + B5[i+1] + B3[i+1] - B4[i+1] + B2[i+1] - B1[i+1];
    A[i+2] = B5[i+2] + B3[i+2] - B1[i+2] - B4[i+2] + B0[i+2] + B2[i+2];
    A[i+3] = B3[i+3] + B5[i+3] + B0[i+3] - B1[i+3] - B4[i+3] + B2[i+3];
"""


def _source(name: str, ctype: str, terms: int, lanes: int, body: str) -> str:
    arrays = " ".join(f"{ctype} {a}[256];" for a in ["A"] + [f"B{j}" for j in range(terms)])
    return (
        f"{arrays}\n"
        f"kernel {name}(n) {{\n"
        f"  for (i = 0; i < n; i += {lanes}) {{\n"
        f"{body}"
        f"  }}\n"
        f"}}\n"
    )


SOURCES = {
    "wide8x8_double": _source("wide8x8_double", "double", 8, 8, _LANES_8X8),
    "wide8x8_long": _source("wide8x8_long", "long", 8, 8, _LANES_8X8),
    "wide4x6_double": _source("wide4x6_double", "double", 6, 4, _LANES_4X6),
    "wide4x6_long": _source("wide4x6_long", "long", 6, 4, _LANES_4X6),
}


def compile_digest(name: str, config: str):
    """(sha256 of the printed compiled module, its ``supernode.*`` counters)."""
    module = lower_program(analyze(parse_source(SOURCES[name])), name)
    compiled = compile_module(module, config_named(config), DEFAULT_TARGET)
    digest = hashlib.sha256(print_module(compiled.module).encode()).hexdigest()
    counters = {
        key: value
        for key, value in sorted(compiled.counters.items())
        if key.startswith("supernode.")
    }
    return digest, counters


EXPECTED = {
    ('wide8x8_double', 'SN-SLP'): (
        '6967f011522f7336bfbaa91e0ab9f9abcc0bf7dd42f7e41e995215ae15eb2868',
        {'supernode.groups-applied': 16, 'supernode.lane-chains-grown': 8, 'supernode.leaf-moves-applied': 22, 'supernode.moves-probed': 288, 'supernode.nodes-formed': 2, 'supernode.trunk-moves-applied': 9},
    ),
    ('wide8x8_double', 'LSLP'): (
        '7c3f51f4d98d5ec1e88a5bc11020e07f44fa731442f83128ab5c77dc1d36007c',
        {'supernode.lane-chains-grown': 8},
    ),
    ('wide8x8_long', 'SN-SLP'): (
        '8c36522e8f34c76e187f9603e08e37dddb0db1f8b2489e13056720b1a5edd369',
        {'supernode.groups-applied': 16, 'supernode.lane-chains-grown': 8, 'supernode.leaf-moves-applied': 22, 'supernode.moves-probed': 288, 'supernode.nodes-formed': 2, 'supernode.trunk-moves-applied': 9},
    ),
    ('wide8x8_long', 'LSLP'): (
        '22a92db8be786e5c0af0c1371da4d22e511d2a2e4d20cdfde51ef5904281beb7',
        {'supernode.lane-chains-grown': 8},
    ),
    ('wide4x6_double', 'SN-SLP'): (
        'e7c5e4a0a7a74cd2cb7dd2edeb5ea0572f4346f3fd7dbd15827a53fe471024d2',
        {'supernode.groups-applied': 6, 'supernode.lane-chains-grown': 4, 'supernode.leaf-moves-applied': 8, 'supernode.moves-probed': 84, 'supernode.nodes-formed': 1, 'supernode.trunk-moves-applied': 3},
    ),
    ('wide4x6_double', 'LSLP'): (
        'b95b830d77e95c21dc48782638702b86d1d4309183be614f26b8f461ab848c2e',
        {'supernode.lane-chains-grown': 3},
    ),
    ('wide4x6_long', 'SN-SLP'): (
        '9ca335d12c1c0d00e8f4328c2c59a9a75b6f7f84b0c71bb5e1c70c08e2091a0c',
        {'supernode.groups-applied': 6, 'supernode.lane-chains-grown': 4, 'supernode.leaf-moves-applied': 8, 'supernode.moves-probed': 84, 'supernode.nodes-formed': 1, 'supernode.trunk-moves-applied': 3},
    ),
    ('wide4x6_long', 'LSLP'): (
        'c5b2e79dde0d60ad276c233bf7616b01d6d398c162e12ba161243cc6196315b0',
        {'supernode.lane-chains-grown': 3},
    ),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("config", CONFIGS)
def test_wide_supernode_output_matches_golden(name, config):
    assert compile_digest(name, config) == EXPECTED[(name, config)]


def test_sources_are_wide_signed_sums_in_per_lane_order():
    """The pinned inputs keep their shape: every lane a distinct term
    order, at least two ``-`` terms per lane."""
    for name, source in SOURCES.items():
        lines = [line.strip() for line in source.splitlines() if line.strip().startswith("A[")]
        assert len(lines) in (4, 8), name
        orders = [tuple(part.split("[")[0] for part in line.split(" = ")[1].split()[::2]) for line in lines]
        assert len(set(orders)) == len(orders), name
        assert all(line.count(" - ") >= 2 for line in lines), name
