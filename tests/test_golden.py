"""Golden sha256 digests of every command's default output file.

Each command runs with no options besides --out (and --format json for the
atlas), and its file must hash to the digest recorded here.  The digests
were recorded on x86-64 with numpy 2.4 (AVX-512 exp); a host whose numpy
rounds exp, cos or sin differently in the last bit can print other floats.
A deliberate output change updates the digest and says why in CHANGES.md.
"""

import hashlib

import pytest

from deltachain.cli import COMMANDS, main

GOLDEN = {
    ("bands", "csv"): "34183ebb07e6d0d70028ef09da208438b409d8b2a694f59802023e8e72685fb7",
    ("bound", "csv"): "caefeee7a08ebbcfd3be7fd34fe0aef77607b68e867c172cdfb8617e421d83c4",
    ("atlas", "csv"): "bdd6f087eccd9b1e624367c826fb56e3cf8f6246f211936654156537b2c91c4e",
    ("atlas", "json"): "3edaa26a3d913ee6cd40380bcecbb1fe38e7383bc6de69c70d8e968c93c73287",
    ("scatter", "csv"): "78c322daa34ec24a2ac61d29fee41fd03ca2e7582ea60482d210166e18f5e962",
    ("wave", "csv"): "c9138960c899767acbb0145bc54acb28c3722f7da3cac8bd4aa7515f0dba3d02",
    ("dos", "csv"): "3dd9e961cdb8c19839cb42684ca44369eeca104bf5b036f67f5093ccda7a0002",
    ("binding", "csv"): "7659fe6143b298893cc28880669bda2736171f6451879aa6a220d197ce2e8c43",
    ("fib-info", "csv"): "7bcb068aac3dc4faf4b6de7b019eaeecf5e23d793b96713e0dbf249a903a7c8d",
    ("commute", "csv"): "60a2d7270521b80a0a04a748a5c9f740ba3513e7d686adf7c7db657b01dc5801",
}


def test_every_command_has_a_default_digest():
    assert sorted({command for command, _ in GOLDEN}) == sorted(COMMANDS)


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN), ids=lambda v: v)
def test_default_output_digest(command, fmt, tmp_path):
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN[command, fmt], f"{command} --format {fmt} output changed"
