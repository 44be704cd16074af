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
    ("bands", "csv"): "d8100ec66b185c06bd8d48281098ad6898d36d25bc9b77774ed17cb588cc281e",
    ("bands", "json"): "aa2cc8db6a0318137ea1216b14354a776059ce934774c789ff2da71fd0515468",
    ("bound", "csv"): "5eebc9644abe6edfb3d917e3af0146f643f32a0016a8f885a7143cda23a1362a",
    ("bound", "json"): "593a01e575ece6e3fe9eee82283e8c4baee461fdbeb4d4b03e3471c02c6f66d8",
    ("atlas", "csv"): "73cfc28275889144b9667fdc46d5687f221eb7da027d7d5e54a05b9d5f8b367f",
    ("atlas", "json"): "324d87d9dabdf657eb485bd0be5096143f415d69f74f546738c87cc1dd9ab8eb",
    ("scatter", "csv"): "5eedadd894989345a22a9d9b4c5f9382350c57aa066e8d2fe68f4c5bb7963cae",
    ("scatter", "json"): "1d9c0a1270f8d73a9852ee045ff2be78ce483fa046b25c17d9a0c0c0ec1fbf84",
    ("wave", "csv"): "c9138960c899767acbb0145bc54acb28c3722f7da3cac8bd4aa7515f0dba3d02",
    ("wave", "json"): "adc8cd8bc3350ee8182a8650132cce289dde42a0f31549c232823edd04ae71d6",
    ("dos", "csv"): "30e9ebd0936b7497d571f86354a1de27e63a8deb2657b0e0d6443960e0e0ac3d",
    ("dos", "json"): "6c1112227b98e42f57f4e61ad9b5e332d7dcdba9324d3b1cfceab22628e566f1",
    ("binding", "csv"): "8e51cbde48b3abb4e5fa46ac6cbf68f54bcc57a6bc82a5f5872fc8fb2a814e22",
    ("binding", "json"): "1c5a769ccab61887291738cdabe891d0817702c443093886ebbbc83112c0d5af",
    ("fib-info", "csv"): "7bcb068aac3dc4faf4b6de7b019eaeecf5e23d793b96713e0dbf249a903a7c8d",
    ("fib-info", "json"): "237c1d58c04de923215bcf31dd3312e9cf9777d07e9fdc9dc0101566453cd9d7",
    ("commute", "csv"): "60a2d7270521b80a0a04a748a5c9f740ba3513e7d686adf7c7db657b01dc5801",
    ("commute", "json"): "8724ee887d09da31129b3d0cc268c3bbe4b9c31a7f2b4aea90b8ca36156f4c1a",
}

BANDS_GOLDEN = {
    "--word fib:m=5 --gamma 10": "c94e7e7d98e43318645a099c6e3af4c1e34802b35060441d506cae1bbd40655e",
    "--regime scattering --word fib:m=5": "daa1e5a1e554825ff64ce4fba21c101d29107ebc2eba699db2b25b5f917a1b14",
    "--word SLLSL --gamma 3": "e45bf6ec67b686af8a6ce1826d49e0d2bafc5e1a8285d109530b9e9f4901e49d",
    "--word S^3 --q 1": "df30a283b876ec7ead30e881dbdbb374f2b6f79d757a8861f5a243773bb7da0d",
    "--word fib:m=6 --gamma 10": "fd2205f6a524ef930d8ff06aa0d654fd502b1a917d2662fee6e8c8ca10e41887",
    "--regime scattering --word fib:m=12 --gamma 4": "5bc867add118bdf69378d9ae94bee624cc8d5b7e0d1451e16396f6f69f34797c",
    "--regime scattering --word fib:m=12 --gamma 4 --format json": "18c1de5752ed46eb93d002405a7bd82634c69d344ce0f9863b60192101c4aada",
    "--regime scattering --word fib:m=15 --gamma 4": "fe06f6ecd0964cd224ef395b247dd7adc3bcd3da924c68425815978a33484f77",
}

BOUND_GOLDEN = {
    "--word fib:m=6 --gamma 10": "6dc3cac65d9892260f499c3786afd85e5f5ff39b6f57a7b780ca4fb74480b22e",
    "--word fib:m=9 --gamma 10": "9838ca904cc247676e31e60540fde747af1931d35788ab2694b0a2d45996fb13",
}

ATLAS_GOLDEN = {
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001": "e930469d12cae3cce7988195b8c763a81a9125943cdad679fc24ec2c74033812",
    "--q 1 --gamma-steps 9": "6f9c5910355e1794ce9389df1831e76563e5928b125cd888015aa00d9ac7a84b",
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001 --format json": "7285564a3949421364581e464a2821f83aa5753ee176fca9723dcf49e81ca734",
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
