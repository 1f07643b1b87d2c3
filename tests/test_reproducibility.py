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

The ``simulate`` hashes belong to one random stream, ``PINNED_RNG_STREAM``:
every histogram and trajectory they pin is stamped ``# rng_stream=N``, and
``ctmc.RNG_STREAM`` must equal the pinned value.  A change to the stream
bumps ``RNG_STREAM`` and re-pins these hashes in the same change.
"""

import hashlib

import pytest

from allelic_bdi.cli import main
from allelic_bdi.ctmc import RNG_STREAM

SEED = "7"

# the stream every simulate hash below was computed on
PINNED_RNG_STREAM = 2
STREAM_STAMP = f"# rng_stream={PINNED_RNG_STREAM}\n".encode()


def test_simulate_hashes_belong_to_the_current_stream():
    assert RNG_STREAM == PINNED_RNG_STREAM

# (name, flags): alpha = 0 with deaths, pure birth at alpha = 0.7, and the
# reversible regime at alpha = 0.5
HISTOGRAM_POINTS = {
    "a0-mu2": "--alpha 0 --theta 1 --mu 2 --t 5 --replicates 400".split(),
    "a0.7-mu0": "--alpha 0.7 --theta 3 --mu 0 --t 2.5 --replicates 60".split(),
    "a0.5-mu1.5": "--alpha 0.5 --theta 2 --mu 1.5 --t 4 --replicates 300".split(),
}

HISTOGRAM_SHA256 = {
    "multiplicity": {
        "a0-mu2": "3743f606df6e695cf9f7cfaa3fb7aa2223e8e0bc1823f64e5e1d370a9aa5525f",
        "a0.7-mu0": "6351a0242608014724cab524e4b0bc7861a70040f19ed8df2cf5615b126020d5",
        "a0.5-mu1.5": "81c1f14270a76d6e0f3dcb64e4a77fa76e2e00061bd6106140616dbb65b494da",
    },
    "branching": {
        "a0-mu2": "d095199e5e358d657f888094d798778b15abc179380aa64a2181d9d1dd1b20bb",
        "a0.7-mu0": "42ac5a01e4c1cf8bfe1cbbcbf2f5c7317fe4f4eaa1057a85a3b88cc64e950570",
        "a0.5-mu1.5": "1c00b439e822f824695bb9f8abbcf0b3b8d37deb5110fbdc5b6cc25c2c8d23d6",
    },
    "bdi": {
        "a0-mu2": "b371c7c3f07d8e927ac2c5360976f482e80cbdff1c3209ebef7f4ba93542ab88",
        "a0.7-mu0": "0ce4a452242ef8897e669e0cde6bd1e9e638dec5ff046b49b00eead4f8dfa38d",
        "a0.5-mu1.5": "748cc3b4fc38b64793f99c59c515f9357d6678a2be58a5e6fea6a548fa0e547b",
    },
}

# a master seed of 2^32 + 1 is two 32-bit words, so [S, i] seeds from three
WIDE_SEED = "4294967297"

WIDE_SEED_HISTOGRAM_SHA256 = {
    ("multiplicity", "a0-mu2"): "1db057dd36f487b52f6a1af84c2cf6191b060d24d66d40506e642c7a8b6d19ce",
    ("branching", "a0.5-mu1.5"): (
        "0e316796d47a0ed6aaa630ecb0fcce974fdb9e8c338f42eaec8d1750a7b53bb6"
    ),
}

# more replicates than one hashing block of replicate seeds
# (montecarlo._SEED_BLOCK), so a serial run seeds from two blocks
BLOCK_SPANNING_FLAGS = "--alpha 0 --theta 1 --mu 2 --t 5 --replicates 5000".split()

BLOCK_SPANNING_SHA256 = {
    "multiplicity": "89b4c812326fca951e225a3f0f74fdf346970a7c2ddddc54dcb6aee1db276fb5",
    "branching": "65ed838d29a06707505286defd199cfcc55f40d702f7f28560c85cf2f51f7835",
    "bdi": "54cd035af54b6e198d1b31ec51df0f354954a57ff87261f42eee31f5342be907",
}

# one path with new families, growth, deaths and extinct families
TRAJECTORY_FLAGS = "--alpha 0.5 --theta 2 --mu 0.8 --t 6".split()

TRAJECTORY_SHA256 = {
    "multiplicity": "891d1f8b00187375c5f00f627ee8d9e02dc395dfb2618b6f2234f3aa24a9d118",
    "branching": "51eb064eca4fdab1359576aec18bb2447807a763c243c162fb34a91cc05340c1",
}


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def histogram_sha256(tmp_path, engine, flags, seed) -> str:
    histogram = tmp_path / "histogram.csv"
    argv = ["simulate", *flags, "--seed", seed, "--engine", engine]
    argv += ["--workers", "1", "--histogram", str(histogram), "--summary", str(tmp_path / "s.json")]
    assert main(argv) == 0
    assert STREAM_STAMP in histogram.read_bytes()
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
    assert STREAM_STAMP in trajectory.read_bytes()
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
    "multiplicity": "bdcaa88e0ca77ff2bc9710166a2eaec4d531c942e3a4cb0f9e942e833f68131f",
    "branching": "a931810ad05b2a35f4aec88e35784c062a0d4bc614a1696dc9f2d9e51c39445e",
    "bdi": "0687a8a5b775e7c7529afb08fcc96546b7b374a4d34b4da9bc2a5debac5b5de0",
}


@pytest.mark.parametrize("engine", sorted(SUMMARY_SHA256))
def test_summary_bytes_are_pinned(tmp_path, engine):
    summary = tmp_path / "summary.json"
    argv = ["simulate", *SUMMARY_FLAGS, "--seed", SEED, "--engine", engine]
    assert main(argv + ["--summary", str(summary)]) == 0
    assert sha256_of(summary) == SUMMARY_SHA256[engine]


# deterministic artifacts: the four exact tables and five verify reports
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
    # theta < 0: the size suite scans the signed law lambda(n) < 0 for n >= 1
    "verify --alpha 0.5 --theta -0.25 --mu 2 --max-size 6 --size-max 50 --series-terms 500": (
        "4e0437f2b1de2f615cf506915c38447776683e47bd57255b3d539e2bd0ee49e4"
    ),
    # the default grid: 10^4 series terms reach past n = 512, and alpha = 0.999
    # folds a leading factor below 0.5
    "verify": "966073fd1d8099769716e1103d9f4845a3901371ed72f64f10c9c34a1c2d65f3",
    "verify --alpha 0.999": "0b9f13b0fac80bd8e8892cafd6a0b0b82fe16e649c2fba48bd29d5f8124c1981",
    # a signed point (theta < 0) near mu = 1, scanned over the whole graph, s <= 14;
    # its weight series sums all 10^4 terms, so it reads the weights far past i = 512
    "verify --alpha 0.3 --theta -0.29 --mu 1.01 --max-size 14": (
        "26a82a6dffc8ec81353fea2b914c1b8ff59335f09a58d70448d8c960c8bf7ba3"
    ),
}


@pytest.mark.parametrize("command", sorted(EXACT_SHA256))
def test_exact_and_verify_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "artifact"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert sha256_of(out) == EXACT_SHA256[command]
