"""A block's bits under each OpenBLAS x86-64 core: the position checks of
test_tiles.py for both operators, run in one child process per
OPENBLAS_CORETYPE, since OpenBLAS picks its core once, when it loads."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_tiles import (
    notch_360hz_operator,
    position_patterns,
    rpt_360hz_operator,
    tile_rows,
)

import rpt

# Each OPENBLAS_CORETYPE tried, with the names OpenBLAS reports for it; it
# names the Prescott kernels after Katmai, an older core that shares them
CORES = {
    "SkylakeX": ("SkylakeX",),
    "Haswell": ("Haswell",),
    "Prescott": ("Prescott", "Katmai"),
    "SandyBridge": ("Sandybridge",),
    "Nehalem": ("Nehalem",),
}
# the child imports rpt and this module
CHILD_PATH = os.pathsep.join(
    (str(Path(rpt.__file__).parents[1]), str(Path(__file__).parent))
)


def openblas_core():
    """The core OpenBLAS picked in this process, or None where no loaded
    OpenBLAS reports one."""
    try:
        with open("/proc/self/maps") as maps:  # the libraries this process loaded
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def report():
    """Print, as JSON, the core OpenBLAS picked and the number of bit patterns
    of a block over every position of a record past two tiles, for both
    operators at N = 108, 360 and 1440, at 50 and 100 Hz."""
    patterns = {}
    for make in (rpt_360hz_operator, notch_360hz_operator):
        for n in (108, 360, 1440):
            for f0 in (50.0, 100.0):
                count = 2 * tile_rows(n) + 3
                apply = make(n, f0)
                patterns[f"{make.__name__} {n} {f0}"] = len(
                    position_patterns(apply, n, count, 7)
                )
    print(json.dumps({"core": openblas_core(), "patterns": patterns}))


def numpy_blas():
    """numpy's BLAS name and OpenBLAS build line, where numpy reports them."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = blas.get("blas", {})
    return blas.get("name", "unknown"), blas.get("openblas configuration", "")


@pytest.mark.parametrize("core", CORES)
def test_a_block_has_one_bit_pattern_at_any_position_under_each_core(core):
    name, build = numpy_blas()
    if "DYNAMIC_ARCH" not in build:
        pytest.skip(f"numpy's BLAS is {name}, not an OpenBLAS built with DYNAMIC_ARCH")
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": CHILD_PATH}
    code = "import test_blas_cores; test_blas_cores.report()"
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    if result["core"] not in CORES[core]:
        pytest.skip(f"this host cannot run {core}: OpenBLAS picked {result['core']}")
    assert result["patterns"] == dict.fromkeys(result["patterns"], 1)
