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
gamma = 10 go through the node count, its isolation and the d bisection,
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
    ("bands", "csv"): "34183ebb07e6d0d70028ef09da208438b409d8b2a694f59802023e8e72685fb7",
    ("bands", "json"): "5e5a59201f977156a5016990fe8f8e011977e3c60a150ed783110e0fa3987a43",
    ("bound", "csv"): "caefeee7a08ebbcfd3be7fd34fe0aef77607b68e867c172cdfb8617e421d83c4",
    ("bound", "json"): "990ed2618f40721f5cd5a6338a7a1829f26d693f8d7ba74e69a0de0ec9047e09",
    ("atlas", "csv"): "bdd6f087eccd9b1e624367c826fb56e3cf8f6246f211936654156537b2c91c4e",
    ("atlas", "json"): "3edaa26a3d913ee6cd40380bcecbb1fe38e7383bc6de69c70d8e968c93c73287",
    ("scatter", "csv"): "5eedadd894989345a22a9d9b4c5f9382350c57aa066e8d2fe68f4c5bb7963cae",
    ("scatter", "json"): "1d9c0a1270f8d73a9852ee045ff2be78ce483fa046b25c17d9a0c0c0ec1fbf84",
    ("wave", "csv"): "c9138960c899767acbb0145bc54acb28c3722f7da3cac8bd4aa7515f0dba3d02",
    ("wave", "json"): "adc8cd8bc3350ee8182a8650132cce289dde42a0f31549c232823edd04ae71d6",
    ("dos", "csv"): "3dd9e961cdb8c19839cb42684ca44369eeca104bf5b036f67f5093ccda7a0002",
    ("dos", "json"): "104c37020aff04e500662ba05c192222a78f498d93bc600cf2d9a80ae73227f5",
    ("binding", "csv"): "6b2f8318f9a7208ed5118f2ccca420ac4eafba33771f5f1e5f43bc1deebc1469",
    ("binding", "json"): "1594d96c54b8e643b5e92b35cb06ef35d1535f7eb1e3173da246e47abf3ff839",
    ("fib-info", "csv"): "7bcb068aac3dc4faf4b6de7b019eaeecf5e23d793b96713e0dbf249a903a7c8d",
    ("fib-info", "json"): "237c1d58c04de923215bcf31dd3312e9cf9777d07e9fdc9dc0101566453cd9d7",
    ("commute", "csv"): "60a2d7270521b80a0a04a748a5c9f740ba3513e7d686adf7c7db657b01dc5801",
    ("commute", "json"): "8724ee887d09da31129b3d0cc268c3bbe4b9c31a7f2b4aea90b8ca36156f4c1a",
}

BANDS_GOLDEN = {
    "--word fib:m=5 --gamma 10 --steps 32000": "78c97c36e03a0a614fead257d35573a13a8a67d9cee951c7b4ae0fd29af783b7",
    "--regime scattering --word fib:m=5": "0bd64d130c6b2e650c10065a821415c5b80dabc24b59df03fa5c7fda291f074f",
    "--word SLLSL --gamma 3": "90391007a759837fda207cba8bca3c0294b9a3dfefad2378a75a2c91b356248e",
    "--word S^3 --q 1": "3ed29ba5270ce314d77a980c989f85c21fa3fb925b9788574e45f8e36bdf96dc",
    "--word fib:m=6 --gamma 10 --steps 128000": "12013c69bd114cd80d0d716230dc7bbc758e0f49059534741392aa2142a6a712",
    "--regime scattering --word fib:m=12 --gamma 4": "ce8a5cb914f9438b70e48e930c8ef45eb075bc9381e3e0b001a6e1ea07699b9e",
    "--regime scattering --word fib:m=12 --gamma 4 --format json": "2562d111eda6ad752c1c8cea4e8cf900bac5968bd5b65df351a9c12e39f815c8",
    "--regime scattering --word fib:m=15 --gamma 4": "6fe187be59f267e509cde0828a2a98ad79d0f83dd4bc433c4b9d40e88af980c3",
}

BOUND_GOLDEN = {
    "--word fib:m=6 --gamma 10": "6e46d295560725eead3a34f32911c8f841452fc56dc03d7109206e764d6846af",
    "--word fib:m=9 --gamma 10": "037cb3228fcb6f0ae9b16c9e75f68cdfca70d1565d63eccaa1cd82354c55c5fb",
}

ATLAS_GOLDEN = {
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001": "f9caa01414352860988932a34307821555202c89c6bcb646f383e43cfde300c0",
    "--q 1 --gamma-steps 9": "f0409aaff79b99359e67504932b715e1100867ae8e441ef0f811c0e974978eba",
    "--gamma-steps 401 --gamma-min -6.00001 --gamma-max 6.00001 --format json": "9652328fbc2978e01bd7c2507d271ceae20904ad1f6ce59af224603ebd7fb9fc",
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
