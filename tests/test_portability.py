"""Report files are portable across BLAS cores and numpy dispatch levels.

Both golden configs (default encoding) run in a fresh interpreter with
OpenBLAS forced to another core type, with numpy's AVX-512 dispatch
switched off, or with both at once, and their four report files must
keep the digests that ``test_golden`` pins. The model files are not compared: those kernels
round the gemm and ``exp`` results differently, so model bytes are pinned
only for the default kernels of an AVX-512 host.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, REPORT_FILES

ROOT = Path(__file__).resolve().parents[1]

# Writes both golden configs' outputs under the directory given and prints
# their digests as one JSON object.
DIGESTS = """
import json, sys
from pathlib import Path
from test_golden import CSV_RAW, SYNTHETIC_RAW, geo_csv_text, output_digests
work = Path(sys.argv[1])
(work / "geo.csv").write_text(geo_csv_text(), encoding="utf-8")
print(json.dumps({name: output_digests(raw, work, work / name)
                  for name, raw in (("synthetic", SYNTHETIC_RAW), ("csv", CSV_RAW))}))
"""

# Per setting: the environment it adds, and the CPU flag it needs.
SETTINGS = {
    "openblas-haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "avx2"),
    "openblas-haswell-numpy-no-avx512": (
        {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}, "avx2"),
    "openblas-prescott": ({"OPENBLAS_CORETYPE": "Prescott"}, "pni"),
    "openblas-sandybridge": ({"OPENBLAS_CORETYPE": "Sandybridge"}, "avx"),
    "numpy-no-avx512": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}, None),
}


def cpu_flags():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 kernels only")
@pytest.mark.parametrize("setting", sorted(SETTINGS))
def test_reports_match_golden_under_other_kernels(tmp_path, setting):
    env, flag = SETTINGS[setting]
    if flag is not None and flag not in cpu_flags():
        pytest.skip(f"this CPU lacks {flag}")
    result = subprocess.run(
        [sys.executable, "-c", DIGESTS, str(tmp_path)], capture_output=True, text=True,
        env={**os.environ, **env, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])},
    )
    assert result.returncode == 0, result.stderr
    digests = json.loads(result.stdout)
    for source in ("synthetic", "csv"):
        assert {name: digests[source][name] for name in REPORT_FILES} == \
            {name: GOLDEN[source][name] for name in REPORT_FILES}, source
