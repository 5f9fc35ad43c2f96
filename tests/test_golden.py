"""The recorded output bytes of every subcommand: one table, keyed by the argv.

Each entry holds the SHA-256 of the CSV and of the manifest that ``waveq <argv>``
writes.  The table covers the 15 subcommands at their defaults (general-closure and
solve-b with the README's example symbols), the variants that exercise other code
paths, and the 13 runs of the ``cli`` benchmark's first input at seed 1
(bench/workloads.py, ``Cli``).  A change that moves an output on purpose updates
its entries here and names each one, with its reason, in CHANGES.md.

    PYTHONPATH=src python -m pytest -q tests/test_golden.py    # the checkout
    python -m pytest -q tests/test_golden.py                   # an installed package
"""

import hashlib

import pytest

from waveq.cli import dispatch

GOLDEN = {
    # IEEE arithmetic and sqrt only (dyadic lattice sums, the doubling maps, the exact
    # refinement recursion): these bytes hold on any machine
    ("cascade",):
        ("57204f0c14098c18b4a220f60aa5d2da1f010a1496efce939aaf3cd3451292db",
         "11a4e023c1d7e7b97476d925f9d23b2f6c8dbbb0369728d061c320f6ba2814aa"),
    ("cascade", "--system", "b2", "--iters", "3"):
        ("24ff4d4a74db75c72c76273191a0be4a9118ff5d9d16c32e3845aa62a856f5f9",
         "57dfc70f2a0a8fce5535851f2afc6f17fde4ffaf2b4a02b871718432ffc3dd8d"),
    # 3 * 2^14 samples, 384 KiB a lattice: the size at which temporaries cost page faults
    ("cascade", "--resolution", "14"):
        ("c1d546c6512eeadf1cc3fd700a189f8866d61216d6d142996419a73d70a0560a",
         "a3cbeca8d69dd733bae11bc6b24d3bd225bce07b591a50acdb241a36ee5ce5b7"),
    ("cascade", "--system", "b2", "--start", "hat", "--iters", "2", "--resolution", "9"):
        ("e83898c922df8fead0009c3b7a93126725dd8993684a36ca30d3a4e6a306a034",
         "8ef48df99f763da614141c7c771f311a25353c72ece237dc08449f8e79904bfc"),
    ("wavelet",):
        ("94aacc9e7f75c9f8ee9949266f9f9b0e5653f9e60aeff5539bf90364c6741ee9",
         "94c69603364e0fa0f5514c3fc32935d8ddec99e838123950f6b474e827e07ab9"),
    ("wavelet", "--system", "b2"):
        ("eb050d902a0931873be28f5e045243ddd875846b47d839e84cb3d1634d2f59d0",
         "903fb56143eab0c505db918c159040a0aa089828c7e7111cfcb9fb07e767c608"),
    ("wavelet", "--form", "literal"):
        ("32c07c29cdf9c99f2fb979f5e5eed7e4ce84eeba18fcb9a9b978665149399118",
         "264f877a2d707fe997bf2a2136bb53f0403d33391dd78550f99d3f15f4b7a683"),
    ("wavelet", "--system", "b2", "--resolution", "13"):
        ("bacb8bafb4e1d984584589f34758afe9e3610b9d408fc6f1f065d016e61b3375",
         "ba400fe8d31bb2ef7b3ca2c9d1ef3765d54ec2890a133f4ee324fd5db5127b58"),
    ("wavelet", "--system", "b2", "--resolution", "8"):
        ("27316bd4be90573d1af4e24aaff39869ec94336f5a92040648c07125c0e76420",
         "4067e0289a7740ff0dddbe4195d36e68fc16b628bddfedab94f006b7c944f101"),
    ("spectrum",):
        ("94cad065816e9fc231048dca600556af60bd63b3aebd9797779b313f28a3721d",
         "a9eba9936088cb8664b14bbdd7cb18a3f4264177ec71dd33f0fbb945232e7b40"),
    ("spectrum", "--map", "half"):
        ("b15c8d6fcd3b3207f058356273428cc662785070dc0c804a939726652afe2b26",
         "0f7fa7a8f8c500135a3c6ba1984b5bff7f695d5918532818dbdf9b64dd7698d4"),
    ("spectrum", "--a0=-0.0"):
        ("d0a64ec03a8e4d432f9c3188e8e968d3891852ef10c8bd8e6449e4dea3952686",
         "4a868acd4a4fea397ffcb81c723e02301b53bcab0014ae2c58ce16fbc25beaac"),
    ("spectrum", "--a0=0.8389325817002489", "--n", "12"):
        ("24063a3d60e2c7993ab0172a8cb08397b844f69015dfb85cb00041150023e253",
         "b4719b94852b3452ca3f380b993ff1495253d645478a06e9e898ec22becd639f"),
    ("solve-b", "--c", "1 + T^-1"):
        ("0dfaa3062d69403d30d6f1cd11f558891d9fb2198b8f1969f99f9334f793a59b",
         "497a4e1ee784bcbff1816c753249df4ab66e02e57e52e5b0085c0ea475451e60"),
    ("solve-b", "--c", "1/2 + T^-1/2 + 1/2*T^-1"):
        ("bce6e3569117c2da84c001b10cc6e63da7d8e5bee1cbe6b4bf6152c6b1bbdfab",
         "b3b7f64c51f18bd0844c2a3550ab67c86b479cd03c34ba304aecea7053e1d640"),
    ("solve-b", "--c", "1/4 + 3/4*T^-1/2 + 3/4*T^-1 + 1/4*T^-3/2", "--window", "12"):
        ("4caebd022d35d1623f95a269973b191870eb1a5c2d9e8ec08741e09979381c88",
         "3756094556e80532187e4df5b05ff166567c80dc91d6ac9a8de7c39b049de97e"),
    # through libm (math.cosh, sinh, exp, cos, acos, pow), numpy's arctan, arctan2, tanh,
    # log1p and exp (limit, fig2), or LAPACK (prop1's nullspace; check runs all of them):
    # recorded on x86_64 with glibc and numpy 2; limit's bytes are the same with numpy's
    # AVX-512 kernels on and switched off (NPY_DISABLE_CPU_FEATURES)
    ("limit",):
        ("549fb38c6103aacb61be6d4ef95413a3994496dfc15d2e9dcc811a54e2786aa5",
         "160cb428077d034c8036281f5f9f6a82a89a050e1ae29e7ddcb240a0e6d81c83"),
    ("limit", "--preset", "b2"):
        ("d5236dda09fdcaef7b82cbc9ecaa5cacec88338e3fdab47b9975015c5ee4bb22",
         "14bc35799528be9e6b0957705e84c52349386d24eeeff67838ad63754660c763"),
    # at resolution 0 the b2 word's half step is finer than the lattice
    ("limit", "--preset", "b2", "--resolution", "0"):
        ("fe0b007c333a17fcd8471abe32ab55096258cf64fe5afc82720d29e7bd932b58",
         "e674ea4f3b8286dec000415f4f5c4aa11da0be12a585646747b9ab5b12d8851e"),
    ("limit", "--delta", "tanh"):
        ("c2a4cea85a323208e14e612c98a2d5f9bd2f7eb7937c2c32e721959743279b94",
         "b9f16e921f3dd1885945190c8414ab7d370245a345a8e62ac9ff7048d9ddbe4b"),
    ("limit", "--emit", "profile"):
        ("d6de87934aebf082edd1a80952a15a11290ebeaea6773f2d64177664ba83deb7",
         "bb660ae4b3cec8f261122560b5d72ee586b864ef52a6059b2006539257a0af40"),
    ("limit", "--n", "5,14,17,20", "--resolution", "10"):
        ("110b3d41383fbfdd84af0fee06f5c1a60ab53fe359371f988b8bd2733b5adec4",
         "2a26a713dc336355c6041eeac42f100a0ac18edd81e44139bf299f0f31e3bbd1"),
    ("fig2",):
        ("dd5fa6553118b814503065a9f69a7c6183be8b2d9a2336391357330e9c8a78de",
         "349943b101894b8ddf7e785485af92379d89639b484ebe47d97b7e65775693a0"),
    ("ladder",):
        ("313a4488a4a8ec2c1e91b93c40a4897ca6f53c81e8bd38d3144a0a1e789c7684",
         "590bdb0d3382eb70bb1ae3ab54c79c1af39dd59cc90a08bd9494d91035a0c3dd"),
    ("ladder", "--a-tilde=0.482516249116812"):
        ("191a3d909691ef29709792cf576b6aeeb390e1d4e557097762ac578a433250e6",
         "9d480a45eb9c51bd809da411c334f31c9707c5f6f4f95901161f591bce6bf4b2"),
    ("closure",):
        ("57dd4d8d95a0f1244fc19705d7b9073232ca7965d3eea8184c9f876c7ff93300",
         "6d852442bc94dccd5903f76c291a6b0c336799033f0addc7f1f5723ac2e77bb2"),
    ("closure", "--s=0.8884643441124411", "--alpha=0.8734254807640112"):
        ("57dd4d8d95a0f1244fc19705d7b9073232ca7965d3eea8184c9f876c7ff93300",
         "5ee0c4435134208fea6182a4fe9c6c0cdbc3da5ae9f22721357a0c0bc4da0fed"),
    ("general-closure", "--j0", "1/2*T^1 + 1/2*T^-1", "--j", "1/2 + 1/2*T^-1"):
        ("fa18c7762ab1ae46adf485da92974f27276c524ec41cdc7acf04dfb797c4d075",
         "e47a04bdbb39c86f31a3c8e21bd23127c73f0b67e0f35c52040a1c42640006d8"),
    ("general-closure", "--j0", "1/2*T^1 + 1/2*T^-1 - 1/4*T^1/4",
     "--j", "1/2 + 1/2*T^-1 - 1/2*T^-1/4", "--s=0.9092386169361706"):
        ("7a31d81e835ddae78bdd7ee6807ebe19fbd4f1d3230d229303875c5f207e196d",
         "290ec37e8222824b5febe432f00f0006615a0cc644bd4bb3e50622731c6a6a39"),
    ("casimir",):
        ("a2746572562b41d93972c8530f3e21d8eebe55f5cf109af9bba98b744d0f04de",
         "13bbf056aeb804ba13652a19821fa18147e5e4b0d983de192377abe894154368"),
    ("casimir", "--a-tilde=0.8666072559491343"):
        ("a2746572562b41d93972c8530f3e21d8eebe55f5cf109af9bba98b744d0f04de",
         "c1faa989906bcc31d88bb6e094f8159ebe8680a0117bcffc597fe0ecaf33d465"),
    ("gamma",):
        ("6f3bf35eab2fe6853f917359e0e583292ff1b8b4b188ba919b1594e7429908f0",
         "8775f233120c945a80bcd16876e9fc4d1add3f1f1cd6b7243db2a77eb38789bd"),
    ("gamma", "--b=0.7069712923496486", "--points", "100"):
        ("b395ea5618080c637457d58cfeb492b5bfc9971dd87846127ac2f5a25ed0f009",
         "f07f5e97920e5dec4390a7b7df1ec3826cf3c85bb72ab54707f75147c8b492da"),
    ("bridge",):
        ("99277c132fd532580b3ce1c65cf244212f34e9f3acf29f4c223b3401c35fb562",
         "55a49624a0fee8219b60067e5dee81bab605dda70652a51c58f85596001a0347"),
    ("bridge", "--s=0.5138602644171442", "--a-tilde=0.5271264758330093"):
        ("1f0c9dd8d5822ce4a078a03de375a3b93450a91245636154431730715f25dc15",
         "d143979947951e61cf97da24d1d69bdf1fc90553e0b059cbbd967c73194a5ad0"),
    ("fig1",):
        ("6162589a7213299b16d98cd32d82b23051e739041e7e17d1f64aa69afb67f07c",
         "af421ff2d2f9a2423031b88641334ff919812ef80b0390c1dbef627c957ff248"),
    ("fig1", "--n", "2,5,8", "--grid", "256"):
        ("87eade90124dc7fe8027668b2b83f45b5972c7abfef1765930aad07a131fd238",
         "47ed677ff4411f8990095c81d2981d04eb95d9e12bbb45515f48cb9b1738fc14"),
    ("prop1",):
        ("b261a8ed6cc30adee962755938a3a6e4dc966b2799167a5ad1881278dc2cb78d",
         "559e2739b193c3eee27693dc95f51c6f2ca17f3d0042485140b173a8e65e4efd"),
    ("prop1", "--window", "64"):
        ("22b80a34d9c8f515d4031120b51510e10780bea90713999c73a81b36e731c77c",
         "818ecee3d8e4efc4263a12eb7592b4711e0893880911e25c010475cb05e06c16"),
    ("check",):
        ("043b0b5c1a4a24c6d6d87d2c763dee5b857e9c8c0ba9ea31584382655eb84029",
         "60413fbc8545be2f2c4558c7723864a76211c376f5e357173d535b6bb3e4dafa"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=[" ".join(a) for a in GOLDEN])
def test_each_run_writes_its_recorded_bytes(tmp_path, argv):
    assert dispatch([*argv, "--output", str(tmp_path)]) == 0
    got = [_sha256(tmp_path / f"{argv[0]}{suffix}") for suffix in (".csv", ".manifest.json")]
    moved = [name for name, g, want in zip(("CSV", "manifest"), got, GOLDEN[argv]) if g != want]
    assert not moved, f"waveq {' '.join(argv)}: the {' and the '.join(moved)} moved"
