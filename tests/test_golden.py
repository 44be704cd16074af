"""Golden sha256 digests of every command's default output file.

Each command runs with no options besides --format and --out, once as CSV
and once as JSON, and its file must hash to the digest recorded here.  The
digests were recorded on x86-64 with numpy 2.4 (AVX-512 exp); a host whose
numpy rounds exp, cos or sin differently in the last bit can print other
floats.
A deliberate output change updates the digest and says why in CHANGES.md.

BANDS_GOLDEN pins ``bands`` runs whose bytes depend on how band edges are
bracketed: converged Fibonacci censuses, the Scattering regime (W_12's 245
germs go through the Sturm fold's Scattering count), a five-letter word, a power word
whose gaps close at q = 1, and W_15 in the Scattering regime, whose x is
multiplied in 4-letter blocks with repeats.

BOUND_GOLDEN pins ``bound`` runs with many roots: W_6's 8 roots at
gamma = 10 go through the node count, its isolation and the refinement of d,
and W_9's roots at gamma = 10 take their d from a product in 4-letter blocks.

ATLAS_GOLDEN pins the atlas at the benchmark's size: 401 gammas, each
batched with the others in one band-germ pass per cell and regime.  At
q = 1 the S and L germs coincide, so the second entry pins the stable
(gamma, cell, regime) order of the rows.  The JSON entry pins five blocks
of mixed float and string columns with missing values.

SCATTER_GOLDEN pins the benchmark's ``scatter`` job: the S-matrix of W_12
over 20,001 betas, in both formats.

FIB_INFO_GOLDEN pins a row of one int, one 46,368-letter token and three
counts, in both formats.

WAVE_GOLDEN pins ``wave`` files long enough to be written in more than one
part of 8,192 rows: W_12 in the Scattering regime (9,217 rows) and W_13 in
the Bound regime from a plane wave (14,913 rows, real kappa, so no field
is blank), in both formats.  They were recorded from the writer that held
the whole table.

The JSON entries of BANDS_GOLDEN, ATLAS_GOLDEN and FIB_INFO_GOLDEN were
recorded from the token-by-token writer that preceded the column writer.
"""

import hashlib

import pytest

from deltachain.cli import COMMANDS, main

GOLDEN = {
    ("bands", "csv"): "47c945838aa51c281b5a6c0283b6b64ebb30364c6d6f2321fa057663016c5e45",
    ("bands", "json"): "8e3adc58170e07177861ad36ec32b73191d1597281e57fe0ea63cbdba5d4c9ee",
    ("bound", "csv"): "484b19d5195ea1127158f14ea822c759641242f2463a33d5e902ff056841f701",
    ("bound", "json"): "c6374dcf5bdb28b5c80a298267df835045960910c50eaf6d347d26fcf2b78bcf",
    ("atlas", "csv"): "c4184f900b30638c0565aafa65ff41d193123a9db64ebd5a1c33fa69e4959e18",
    ("atlas", "json"): "51d2921d4322331ff39c46b342cf39108d5ce8e23287337d68a9affca898ccf1",
    ("scatter", "csv"): "5eedadd894989345a22a9d9b4c5f9382350c57aa066e8d2fe68f4c5bb7963cae",
    ("scatter", "json"): "1d9c0a1270f8d73a9852ee045ff2be78ce483fa046b25c17d9a0c0c0ec1fbf84",
    ("wave", "csv"): "c9138960c899767acbb0145bc54acb28c3722f7da3cac8bd4aa7515f0dba3d02",
    ("wave", "json"): "adc8cd8bc3350ee8182a8650132cce289dde42a0f31549c232823edd04ae71d6",
    ("dos", "csv"): "31542df3bd9da523fc8c6180de784c3714d49a1888f4415cda88921486acc931",
    ("dos", "json"): "a1fc695daf27689e9e4b2f7b78fe4b4c0d3d3184b8d72a4fc87dbc3d5da64ab0",
    ("binding", "csv"): "3b80ba2013cb18a9ac84ebabde51b6f7363f98a44eabe37fbcae5fbd79723c24",
    ("binding", "json"): "1721ac0f39e5b4b21966f6330090cc924ba95d6b15fd5ef11233ed73e3ce2f57",
    ("fib-info", "csv"): "7bcb068aac3dc4faf4b6de7b019eaeecf5e23d793b96713e0dbf249a903a7c8d",
    ("fib-info", "json"): "237c1d58c04de923215bcf31dd3312e9cf9777d07e9fdc9dc0101566453cd9d7",
    ("commute", "csv"): "60a2d7270521b80a0a04a748a5c9f740ba3513e7d686adf7c7db657b01dc5801",
    ("commute", "json"): "8724ee887d09da31129b3d0cc268c3bbe4b9c31a7f2b4aea90b8ca36156f4c1a",
}

BANDS_GOLDEN = {
    "--word fib:m=5 --gamma 10 --steps 32000": "20482661447b6f4fd80a8821096ea6d843052b656fa9abf4c3def5b3991ca36e",
    "--regime scattering --word fib:m=5": "aec5c1a4ed50609d2c6a400c534ccd8bbd5b3af99adf615e66de1ae7f2fe305e",
    "--word SLLSL --gamma 3": "8b42a288b1f16cd89249ab9be532ba36e2cdfab17d49eb624833cb57accb199e",
    "--word S^3 --q 1": "1f634ee5dd811f1863ec7f788641c51e9bd8b287d6ccbb60fff0c4cfe7272770",
    "--word fib:m=6 --gamma 10 --steps 128000": "d9514587bd3bfcbcd8249594efa52331d5bf1654d226d24d90858879408a795e",
    "--regime scattering --word fib:m=12 --gamma 4": "9d17e5b72e07f7b063006fdc6481b31e10f170d709859b179351644a9f99d040",
    "--regime scattering --word fib:m=12 --gamma 4 --format json": "9cd160125d736cdd65e2e1b3d2c62077c7029a79998e8a6d35264a8baf1ade58",
    "--regime scattering --word fib:m=15 --gamma 4": "be1c8881e23b0a66606be12e92b238af32e8b8f96f0fc70541e0af3f4505ebe2",
}

BOUND_GOLDEN = {
    "--word fib:m=6 --gamma 10": "556f58d00932f11e96e7a6d3ae8bc3adf101c1d6510a749ddd54a1d97aee57c1",
    "--word fib:m=9 --gamma 10": "27cbb2eab4ebb2fc5febb46b4590058d83eb160c48199e1c53c73143df367574",
}

ATLAS_GOLDEN = {
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001": "6fb0acbc11362690c9efc93f160d21b314c21626c8d23571b7a7371c519d1d6a",
    "--q 1 --gamma-steps 9": "70c722ad92ad3d8401d7d1eaa65ec93f15d6c8bc09622855777f7f85b9d58449",
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001 --format json": "2f4fea1c00a94f703a94a8451040b288fc743c06a6740d9fd33696226c9021cd",
}

SCATTER_GOLDEN = {
    "--word fib:m=12 --steps 20000 --gamma 4": "646d74269fef9cf88434b4d969b3f6cc4f82784c8d63dabad07614b17d3188ba",
    "--word fib:m=12 --steps 20000 --gamma 4 --format json": "d8460cb1bf2f5f00fd86dbab4dd0578257f4d46e4f229173e076c9952aee5f26",
}

FIB_INFO_GOLDEN = {
    "--word fib:m=24": "525aa221229d4e587a4cc20d80705148251611af4a1b4a17cbd06e5409716395",
    "--word fib:m=24 --format json": "9467c616c9696778d8b2cb64b86ddaa33496c8ed2889d98cb5ac5752e3d9419a",
}

WAVE_GOLDEN = {
    "--word fib:m=12": "efff96725c9275d75e2962f549e475c83bae00d78fc82ccf85ab08c264d675ef",
    "--word fib:m=12 --format json": "f0cc83ee609bbd815a83c2c76a897e7a2ddc85fa33674cf5e431ed173165b10a",
    "--word fib:m=13 --regime bound --beta 0.5 --initial plane": "353271fcaf26e688b56b2312c0d79da1cf6741b2b7bee75ab7141543ac613a23",
    "--word fib:m=13 --regime bound --beta 0.5 --initial plane --format json": "ca2dcadff147e1137c58d03d47190da4bbcd071cef1b9ca64f278af8c1e6f4b3",
}


def test_every_command_has_a_default_digest():
    assert sorted(GOLDEN) == sorted((c, fmt) for c in COMMANDS for fmt in ("csv", "json"))


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN), ids=lambda v: v)
def test_default_output_digest(command, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[command, fmt], f"{command} --format {fmt} output changed"


@pytest.mark.parametrize("args", sorted(BANDS_GOLDEN))
def test_bands_output_digest(args, tmp_path):
    out = tmp_path / "bands.csv"
    assert main(["bands", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BANDS_GOLDEN[args], f"bands {args} output changed"


@pytest.mark.parametrize("args", sorted(BOUND_GOLDEN))
def test_bound_output_digest(args, tmp_path):
    out = tmp_path / "bound.csv"
    assert main(["bound", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == BOUND_GOLDEN[args], f"bound {args} output changed"


@pytest.mark.parametrize("args", sorted(ATLAS_GOLDEN))
def test_atlas_output_digest(args, tmp_path):
    out = tmp_path / "atlas.csv"
    assert main(["atlas", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ATLAS_GOLDEN[args], f"atlas {args} output changed"


@pytest.mark.parametrize("args", sorted(SCATTER_GOLDEN))
def test_scatter_output_digest(args, tmp_path):
    out = tmp_path / "scatter.out"
    assert main(["scatter", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SCATTER_GOLDEN[args], f"scatter {args} output changed"


@pytest.mark.parametrize("args", sorted(FIB_INFO_GOLDEN))
def test_fib_info_output_digest(args, tmp_path):
    out = tmp_path / "fib-info.out"
    assert main(["fib-info", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FIB_INFO_GOLDEN[args], f"fib-info {args} output changed"


@pytest.mark.parametrize("args", sorted(WAVE_GOLDEN))
def test_wave_output_digest(args, tmp_path):
    out = tmp_path / "wave.out"
    assert main(["wave", *args.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == WAVE_GOLDEN[args], f"wave {args} output changed"
