import json
from pathlib import Path

import numpy as np
import pytest

from qwhorl.core import OscillatorParams


try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

# the x86-64 levels, highest first, each with the feature group that names
# it in numpy < 2
_X86_LEVELS = (("X86_V4", "AVX512_SKX"), ("X86_V3", "AVX2"), ("X86_V2", "SSE42"))


def pytest_report_header(config):
    """numpy's version and the SIMD extensions it dispatches: the pinned
    digests hold the last-ulp bits of numpy's vectorised loops, so a digest
    that fails on another machine may name a different dispatch, not a bug."""
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return (
        f"numpy {np.__version__}: SIMD baseline {' '.join(umath.__cpu_baseline__) or 'none'}, "
        f"dispatched {' '.join(found) or 'none'}; digest level {dispatch_level()}"
    )


def dispatch_level() -> str:
    """The highest x86-64 level that numpy's __cpu_features__ report, which
    NPY_DISABLE_CPU_FEATURES lowers (X86_V4 disabled reports X86_V3).

    Disabling X86_V4 alone leaves AVX512_ICL and AVX512_SPR reported as
    dispatched; the X86_V3 digests hold with those two disabled as well,
    which is how CI checks them."""
    features = umath.__cpu_features__
    return next(
        (level for level, group in _X86_LEVELS if features.get(level, features.get(group))),
        "no x86-64 level",
    )


def pinned(golden: dict, key: str) -> str:
    """The digest of key in golden's table for numpy's dispatch level: the
    last-ulp bits of numpy's SIMD loops differ between levels.  A level
    without a table fails, naming itself."""
    level = dispatch_level()
    if level not in golden:
        pytest.fail(
            f"no digests recorded for dispatch level {level} (numpy {np.__version__});"
            f" recorded: {', '.join(golden)}",
            pytrace=False,
        )
    return golden[level][key]


@pytest.fixture
def params():
    """Default natural-units parameters with q = 0.5."""
    return OscillatorParams()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def read_output(path):
    """A written file parsed back: JSON by json.loads, CSV into named columns
    with float() per token, so a .17g value reads back bit for bit."""
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix == ".json":
        return json.loads(text)
    names, *rows = [line.split(",") for line in text.splitlines()]
    columns = zip(*([float(tok) for tok in row] for row in rows)) if rows else [()] * len(names)
    return {name: np.array(column) for name, column in zip(names, columns)}


def same_bits(scalar_out, array_out):
    """A 0-d result holds the bits of element 0 of a one-element array result."""
    return np.ndim(scalar_out) == 0 and np.asarray(scalar_out).tobytes() == array_out[:1].tobytes()
