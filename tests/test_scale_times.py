"""``scripts/scale_times.py``: its output lines and their digests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_times.py"
spec = importlib.util.spec_from_file_location("scale_times", SCRIPT)
scale_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_times)

# the certificate and verification JSON of a search without certificates
EMPTY = "83188b5a499bcfe94cbc7e6e27c53b93d2f374ba77f234cd805cb3c238702042"


def test_scale_times_prints_one_line_per_graph_with_a_stable_digest():
    lines = [subprocess.run([sys.executable, str(SCRIPT), "--graphs", "5-cycle-m2"],
                            capture_output=True, text=True, check=True).stdout
             for _ in range(2)]
    assert lines[0].count("\n") == 1
    fields = [line.rstrip("\n").split("\t") for line in lines]
    for name, search_s, verify_s, count, digest in fields:
        assert name == "5-cycle-m2" and count == "0" and digest == EMPTY
        assert float(search_s) >= 0 and float(verify_s) >= 0
    assert fields[0][4] == fields[1][4]


def test_scale_graphs_match_their_description():
    ld9 = scale_times.build("ld9-m3")
    assert [g for _, g in ld9.vertices] == [1, 2, 2, 1, 1] and sorted(ld9.mu) == [-3, 3]
    cycle, path = scale_times.build("7-cycle-m2"), scale_times.build("7-path-m2")
    assert len(cycle.edges) == 7 and len(path.edges) == 6
    assert path.legs == (("z", "v0", 2), ("p", "v3", -2))


def test_six_path_digest_is_unchanged():
    # 600 certificates, all accepted-modulo-genericity
    _, _, count, digest = scale_times.run("6-path-m2")
    assert (count, digest) == (
        600, "8ba76efda99d66281fc1881aeae4316118841df522867a71e7d3d67dd8f1c7f9")
