"""Golden hashes of CLI artifacts.

Each hash is the sha256 of a file written by ``allelic-bdi`` for a fixed
flag set.  The ``simulate`` hashes pin the random draws and the event
selection of all three engines, including a master seed wider than 32
bits, and the summary hashes also pin the moments and the exact reference
laws the TV entries are measured against; the ``diagnose`` hashes pin the
urn's draws, its group-count sequence and the growth-report arithmetic; the
``exact`` and ``verify`` hashes pin the tabulated laws and the scan
residuals.  A change to any of these changes the bytes.  A change to the
package version or an artifact layout changes them too, and then the hashes
must be regenerated on purpose alongside that change.
"""

import hashlib

import pytest

from allelic_bdi.cli import main

SEED = "7"

# (name, flags): alpha = 0 with deaths, pure birth at alpha = 0.7, and the
# reversible regime at alpha = 0.5
HISTOGRAM_POINTS = {
    "a0-mu2": "--alpha 0 --theta 1 --mu 2 --t 5 --replicates 400".split(),
    "a0.7-mu0": "--alpha 0.7 --theta 3 --mu 0 --t 2.5 --replicates 60".split(),
    "a0.5-mu1.5": "--alpha 0.5 --theta 2 --mu 1.5 --t 4 --replicates 300".split(),
}

HISTOGRAM_SHA256 = {
    "multiplicity": {
        "a0-mu2": "68d8379d2613325111431502bd116f04a69af9fa46b9f3a4cc9d7d06ef7e3858",
        "a0.7-mu0": "eb5427be6cb6409d9e88b9580f5895ff6e64022ec6cd249438421a95067d899f",
        "a0.5-mu1.5": "ea9009b696fe442adbf8a36db15cbe932c31ac1f47c4dde18c93c1d2b5174387",
    },
    "branching": {
        "a0-mu2": "30c573300e95efd3ca1fbad3c532dfa2c6525b7c7d30997b69474634b45dd02c",
        "a0.7-mu0": "42337afa9d4b746b347b6b21a938b9d30d39ebca582bfbb0aa2b07fcde46e15d",
        "a0.5-mu1.5": "7f562316a19ce6972eeee01dd05ae460b31612e95c81480253d256d5834c8de8",
    },
    "bdi": {
        "a0-mu2": "3a8faeaf8e4694713749627cf67fc12cea3ef29107ff54cad01b7174d3ffc0a1",
        "a0.7-mu0": "4a232a92604f92ad69f2d2a919f40c69c38fe03a43d3af2ee407b6a0043fbcf6",
        "a0.5-mu1.5": "d522dd6a69a33789aa0410b3d264d3a879a6696c936855d86a5cbe9ded988dfc",
    },
}

# a master seed of 2^32 + 1 is two 32-bit words, so [S, i] seeds from three
WIDE_SEED = "4294967297"

WIDE_SEED_HISTOGRAM_SHA256 = {
    ("multiplicity", "a0-mu2"): "dfa27d9ffaa7acc8b3b727196d3eba27b73314f02a141271435ec4a64aecfb03",
    ("branching", "a0.5-mu1.5"): (
        "9443cce03ca2210c8806eba8d2c927de12025b21a83aa2ac5ef7b4164a33855f"
    ),
}

# more replicates than one hashing block of replicate seeds
# (montecarlo._SEED_BLOCK), so a serial run seeds from two blocks
BLOCK_SPANNING_FLAGS = "--alpha 0 --theta 1 --mu 2 --t 5 --replicates 5000".split()

BLOCK_SPANNING_SHA256 = {
    "multiplicity": "534217851a04e61bdadb3b6f7f5fbe8f6611262a171fe4338255965b96398a5b",
    "branching": "c6a1ce77b6f08e6cd18872e4eabd053487d339780550042acc084db5e7c71071",
    "bdi": "2e4d365ef4619baa10426065a5a8e66f79a5f876eb2b086361f8fd3a80180abc",
}

# one path with new families, growth, deaths and extinct families
TRAJECTORY_FLAGS = "--alpha 0.5 --theta 2 --mu 0.8 --t 6".split()

TRAJECTORY_SHA256 = {
    "multiplicity": "b2b0575c2b667bd815a0b93b60138d2b54db00bd3adef4652a65da7f09c0dc4d",
    "branching": "4d8e2c420a7406621bcc25a4e1f7c56f248970656b95240c6ad93d33f5a7bf95",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def histogram_sha256(tmp_path, engine, flags, seed) -> str:
    histogram = tmp_path / "histogram.csv"
    argv = ["simulate", *flags, "--seed", seed, "--engine", engine]
    argv += ["--workers", "1", "--histogram", str(histogram), "--summary", str(tmp_path / "s.json")]
    assert main(argv) == 0
    return sha256_of(histogram)


@pytest.mark.parametrize("engine", sorted(HISTOGRAM_SHA256))
@pytest.mark.parametrize("point", sorted(HISTOGRAM_POINTS))
def test_histogram_bytes_are_pinned(tmp_path, engine, point):
    expected = HISTOGRAM_SHA256[engine][point]
    assert histogram_sha256(tmp_path, engine, HISTOGRAM_POINTS[point], SEED) == expected


@pytest.mark.parametrize("engine,point", sorted(WIDE_SEED_HISTOGRAM_SHA256))
def test_wide_seed_histogram_bytes_are_pinned(tmp_path, engine, point):
    expected = WIDE_SEED_HISTOGRAM_SHA256[(engine, point)]
    assert histogram_sha256(tmp_path, engine, HISTOGRAM_POINTS[point], WIDE_SEED) == expected


@pytest.mark.parametrize("engine", sorted(BLOCK_SPANNING_SHA256))
def test_block_spanning_histogram_bytes_are_pinned(tmp_path, engine):
    expected = BLOCK_SPANNING_SHA256[engine]
    assert histogram_sha256(tmp_path, engine, BLOCK_SPANNING_FLAGS, SEED) == expected


@pytest.mark.parametrize("engine", sorted(TRAJECTORY_SHA256))
def test_trajectory_bytes_are_pinned(tmp_path, engine):
    trajectory = tmp_path / "trajectory.csv"
    argv = ["simulate", *TRAJECTORY_FLAGS, "--seed", SEED, "--engine", engine]
    assert main(argv + ["--trajectory", str(trajectory)]) == 0
    assert sha256_of(trajectory) == TRAJECTORY_SHA256[engine]


# (alpha, theta): the Hoppe urn, the two-parameter urn, and theta < 0
DIAGNOSE_FLAGS = "--n-max 20000 --runs 5".split()

DIAGNOSE_SHA256 = {
    ("0", "1"): "a2ce9feac02251ccb7b57dc630cd0b885d755fef38320aa9b92e055c5955a9ec",
    ("0.5", "1"): "d0612af3369592daca14b0c27aae018198b4bf62424650518618d6017619929d",
    ("0.9", "-0.5"): "c52fbd94a9fd67c17d65bf0fd3427d2b911b7b76722c5eb36aec4eed5a9f2e86",
}


@pytest.mark.parametrize("alpha,theta", sorted(DIAGNOSE_SHA256))
def test_diagnose_bytes_are_pinned(tmp_path, alpha, theta):
    report = tmp_path / "growth.csv"
    argv = ["diagnose", "--alpha", alpha, "--theta", theta, *DIAGNOSE_FLAGS, "--seed", SEED]
    assert main(argv + ["--out", str(report)]) == 0
    assert sha256_of(report) == DIAGNOSE_SHA256[(alpha, theta)]


# the reversible regime, so multiplicity and branching summaries carry a
# partition_vs_stationary entry; bdi reports the size TV only
SUMMARY_FLAGS = (
    "--alpha 0.5 --theta 2 --mu 1.5 --t 4 --replicates 300 --tv-max-size 8 --workers 1".split()
)

SUMMARY_SHA256 = {
    "multiplicity": "cdf194828dec863ea48036f04ed98b503cacbfb44b8cd2bcac5e99cd9cc9f060",
    "branching": "ecdbf459e1918d4f2875eb704b0914ac00e35ab82627624ea3d39d63025620a3",
    "bdi": "e2557077a67cc076a38880c50c3fe9df542e566e2b0645811d905ef06d618268",
}


@pytest.mark.parametrize("engine", sorted(SUMMARY_SHA256))
def test_summary_bytes_are_pinned(tmp_path, engine):
    summary = tmp_path / "summary.json"
    argv = ["simulate", *SUMMARY_FLAGS, "--seed", SEED, "--engine", engine]
    assert main(argv + ["--summary", str(summary)]) == 0
    assert sha256_of(summary) == SUMMARY_SHA256[engine]


# deterministic artifacts: the four exact tables and three verify reports
EXACT_SHA256 = {
    "exact esf --theta 1 --n 6 --table": (
        "d00615aac33bd61862392b31602e04aae894c39265b5b308d01de1ccf767c82c"
    ),
    "exact psf --alpha 0.5 --theta 0.5 --n 6 --table": (
        "dd77b360b974f4f69839584b56f1a5c66d8fa11b467fbc16d8e4c7b47f4eed77"
    ),
    "exact pi --alpha 0.5 --theta 1 --mu 2 --table --max-size 6": (
        "2b734e9bee767d66b91c008c22ed0868c4c1ddb0194c3145b5b5e4f283f31fd1"
    ),
    "exact lambda --theta 1 --mu 2 --table --max-size 20": (
        "d16d5c86c34f34f6db27d408ff47229996365eba6976d70c4664a246814320ed"
    ),
    "verify --alpha 0.5 --theta 1 --mu 2 --max-size 6 --size-max 50 --series-terms 500": (
        "d9f2dd9179d9f761a3e1351a8d2f94468d9f74bc255fbaf90e88bea2b21faa53"
    ),
    # the default grid: 10^4 series terms reach the log-gamma branch of the
    # ascending factorials, and alpha = 0.999 folds a leading factor below 0.5
    "verify": "9b6010fa886b287dd8bc6f90a752014962ac75fd8452bf3eca27f41a203b963f",
    "verify --alpha 0.999": "e9a114756812baf097bfe5b4b81d5a7c08cef902a1cd34b96476067ad72baf92",
}


@pytest.mark.parametrize("command", sorted(EXACT_SHA256))
def test_exact_and_verify_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "artifact"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert sha256_of(out) == EXACT_SHA256[command]
