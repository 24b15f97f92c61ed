import json
from pathlib import Path

import numpy as np
import pytest

from qwhorl.core import OscillatorParams


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
