"""The bytes of ``formuniq analyze``, text and ``--json``, and of
``formuniq family --emit graph``, pinned by sha256.

The ``analyze`` cases are the weakly spherically symmetric gallery and
20 seeded chains: zero-killing, with killing, and from the whole tail
grammar (C in [1e-3, 1e3], p in [-6, 6], rho in [0.05, 20]).  The
``family`` cases are every gallery family at two depths.  Speed work must
keep these bytes.  A change that alters them on purpose updates the
digests, printed by ``PYTHONPATH=src python tests/test_output_pin.py``,
and lists each changed case in CHANGES.md.
"""

import contextlib
import functools
import hashlib
import io
import sys
from unittest import mock

import numpy as np
import pytest

from formuniq.cli import main
from formuniq.families import GALLERY, WSS_GALLERY, SeqSpec, birth_death, gallery
from formuniq.series import format_profile_text, parse_profile_text


def pinned_cases():
    """``{case: (argv, stdin text)}`` in a fixed order."""
    cases = {name: (["analyze", "--family", name], "") for name in WSS_GALLERY}
    rng = np.random.default_rng(2718)

    def seq(edge=False):
        if edge:
            c, p, rho = 10.0 ** rng.uniform(-3, 3), rng.uniform(-6, 6), rng.uniform(0.05, 20)
        else:
            c, p, rho = rng.uniform(0.3, 3.0), rng.uniform(-2, 2), rng.uniform(0.55, 1.8)
        return SeqSpec(float(c), float(p), float(rho))

    for kind, count in (("chain", 8), ("killing", 6), ("edge", 6)):
        for i in range(count):
            b, m = seq(kind == "edge"), seq(kind == "edge")
            c = seq() if kind == "killing" else 0.0
            text = format_profile_text(birth_death(b, m, c, prefix_len=48).profile)
            cases[f"{kind}-{i}"] = (["analyze", "--profile", "-"], text)
    return cases


def digest(argv, text):
    """sha256 of the exit code and standard output of ``main(argv)``."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out):
        code = main(argv)
    return hashlib.sha256(f"exit {code}\n{out.getvalue()}".encode()).hexdigest()


PINS = {
    "geometric_chain": (
        "16b1578502369e01f1d06b4aa60b520b71c7f5ba1c289b7e0581f72de45fbba8",
        "c3f51195862d06b1d03eff8abb8649f3e092ee6f481d1f646e0af3eac94e28d9",
    ),
    "unit_chain": (
        "2c65d33638638477e0b9b7ff9d573543b459c9058beff157aeed73dd74c8d22a",
        "ea40f61093e5f366baeaa1d843d8f879fac350c3bc599b0b24bb18901423a6a9",
    ),
    "square_chain": (
        "e61360f6cc57016e0bb76ff12b639bd461904882dd6e0bdb867eb90c1ed9a5b4",
        "33dd6e719af1632789bdd5248964c1af21520f3d66c0f855b7767e24d77ae9d1",
    ),
    "binary_tree": (
        "577492aeac6755533678a0a38ff08f1916e6335af6a54443ae34dd4425792d49",
        "4f68d67c99f06ba34623cc83ff1f82cbbc9d336af06432ff3ef276ce5143b7da",
    ),
    "linear_anti_tree": (
        "b0665430d44dca0bd0dbb9d35f9fc9a14413fe56b92e77a8a4dcc79516d598f5",
        "bdc8005c54cfacf7ddce030ae1763a845371a5b55e6707e4c97cfa59d96753ce",
    ),
    "quadratic_anti_tree": (
        "3b116c95188caae452ca3d88899c9e614a4977b9b920fcc4077f0b990f030fef",
        "d3364be9a51fa82c6bd25cd662346decace2410e06e006e1a3f343e1d2b5269b",
    ),
    "geom_mass_anti_tree": (
        "342deadedf03f23470a1aaaef9768a084dac11ae0e62798b4dc04cbfc961085f",
        "8ed0167921071cd8d64190d7c394844441ebeb46f39c306d27dd1704bf48be43",
    ),
    "chain-0": (
        "b6990348ce0c7afed3ffb3a20063ff863c22208561f7362dcc324dee63966e90",
        "020b9246665b37a719f7b6c1b014257f43ccdfd75a4ba402289bcacffba44b8e",
    ),
    "chain-1": (
        "2809d599181168504d52d1adf60c261b056bd46652af64b3099f751d51a4a0fe",
        "54f6bdfad62e5bae45ad8bc9bdea1760ad02dcd9825dc8188a74cdc7d62303d7",
    ),
    "chain-2": (
        "db7531a9d255799d0d53eb6a9bbf73e53b0828a245863dedb50f6d1063fcce5c",
        "886f6a46a9c3d54385249d9e85bdaae429178f7f3cc443356a538c8b6609c40e",
    ),
    "chain-3": (
        "634f26fdfb9865119eca5620de51062e71134375b8d26426836d02e1d76bcb3e",
        "7b939c7ab107adfd6d951da254aa765673a1d6405547ef9e1344857b420c6c91",
    ),
    "chain-4": (
        "ce334857bed08ee3e4591b1acaf5824f28ccf46cf6bf45ecbbad993476776128",
        "f59a2fdf26800d2773b685d27b43d129a46bb5557e147161edac7a2066828169",
    ),
    "chain-5": (
        "5fe3c36c5798a36fd12df76c895975ffa298a21d588b64af22619a8eecab9608",
        "345e2d61a6137db049d42aca786d30ef2ac10160b04a0c5977a6cd651e8c1c9a",
    ),
    "chain-6": (
        "a470ddb6842d85bff634772be8e7f0ecfbe98cde8e0f8d5faee6838355735830",
        "683cda1bc9675b8235d350925bcb8582d0daf9ac1cf29268de0e802df0a27059",
    ),
    "chain-7": (
        "25a3c76b12ef0434e1c63881cbaa0069abfb811ee83ef209a699d90862bb2f2a",
        "2a06e8de713a9fce4fe7bb579cfa93a189af9e1b1849463cedc8ba60df1152d4",
    ),
    "killing-0": (
        "633512b8df29356dae3f321b6d19d86c20f8bafe1e0df7ff38fa219446a5417c",
        "ce56368b4ccaef9bc1f8b345f31c7fb093acbdaf32ebd8254b3bce5dacf84972",
    ),
    "killing-1": (
        "e8f4181da8182df2157f434192c128d7b024e7bfa8748b8f01d0f1c40743427a",
        "7fdd4b1ad61dd137e2323e1a21bc3e049b5095caa2e8d2fb5ec99cc84fb6b28b",
    ),
    "killing-2": (
        "2adf6eaee8f8aa3d5740f2b857ee017e818e05aec0d9b951eeb69ca51e5aa4be",
        "b6ff8192cba6d83cf6ee64fc0949551f5632ebb59f5aad1c8f95ee05efaea81c",
    ),
    "killing-3": (
        "632e7909a56a6141ae59b8e0579fca3059abb492ca0665ffa1c4f00cfcaf93be",
        "539ec0e55489210b1073978ea30e26503d3f8bbb5e982da990f22dee9c4b0137",
    ),
    "killing-4": (
        "bd273c3abbf58680698659cd144de8ecac970f8cf5e0c210aa15ad0e93a4bd9b",
        "eb3212f34abe1d85df715c1fd629d762444190394853220f9f89f02c8ff78237",
    ),
    "killing-5": (
        "dc75648c19c9ea25b82eea6455d347fd4637d5fe6281e3227c93d6a9206f36b2",
        "a6113a86644fa8dc6dedf18b8c9d6773d87481c3555b5dfc429d84b7019ea28e",
    ),
    "edge-0": (
        "5f92ac7b99bb0a663c7b95beb3860287945a534df140a855beb37e647ef9bc61",
        "32a525b203277aaec0c0c4510b308fe782f9ca3fd26bf4b0cc65b910298d2131",
    ),
    "edge-1": (
        "9b974915c3a517bc5f7e8c8a2c9efd8f2db4841af8cebdfb4e0ca36e6df2b536",
        "75134a0ec237efc2b0b8025adbbc95fbc2ae2fe2a6af661dd6729482a28f64e2",
    ),
    "edge-2": (
        "b543815be031b4df620cc655c014c688a8df2d9c062222fdb539d658da43f435",
        "f9ed6fb14b96b8b97700576f1499f67de9c5cca12eb2d21ac33cda0119ffc29b",
    ),
    "edge-3": (
        "f846faeab09843c7d56c994c5b03123b099c10ae27644d064794f220cffecb34",
        "1b6d903a79e1d0742526720c5fc89f375c18ecb20bd3f461b420d24abbbf5eaf",
    ),
    "edge-4": (
        "83f5db3eeba526c5492d8d3bf6c45aab99ec2525068ecb8086abf6391e343ded",
        "aaa3da56bb320f2e55eec71347e0a9aa654da81cc236861a27875aeedaef21af",
    ),
    "edge-5": (
        "025a0e0e3452715406c550aaba19a47b826f3bc71df227c4c047b019a6598d5c",
        "c7f2bc544655cd805af3370cd8a203bc048d6fcde8ed9975943b83b366c3bfd8",
    ),
}


#: sha256 of ``formuniq family --name <f> --depth <d> --emit graph`` for
#: every gallery family at the depths :data:`EMIT_DEPTHS`.  Every value
#: these truncations hold is an integer or a power of two, so the bytes do
#: not depend on how a numpy build rounds pow.
EMIT_DEPTHS = (3, 8)
EMIT_PINS = {
    "geometric_chain": (
        "17845b7da0dc167ba10768cca8b9f7fa1e2af07c8ca3c9da9f7af8fbc6f7b1f1",
        "c148b7fd0988fc16ddf8bb061acb5caea32dd761530805576a95a0907ec14236",
    ),
    "unit_chain": (
        "f7cf1d0b8b62dde89ef0e69fb5a72f2fc11f7d5bf7f229cf78421742e34b160e",
        "65925158f9663837f1a25621b023ffee0cfcf4d97cf5e5e28291f10e69ee77dc",
    ),
    "square_chain": (
        "082730579181273879a19713be2a67a9d9552f67d2e963118c97b9e9eb7da1f2",
        "092e1a1adaada12f25b1dcfff7e929674ca51b97c956751a8e35cdd4cf15b45e",
    ),
    "binary_tree": (
        "fafca57cd599339730f13f57147e2533dd6b73544c02c6493204099dba55fb56",
        "090193d3b1ea6adf59aacc792f6d3bad144b993866b1aadda624287394291353",
    ),
    "linear_anti_tree": (
        "dfee6c7203ca406a59185ad7fbc5e8a37a6f2b1ec52a9f9c8522c4daa84b53a0",
        "a3152b0ce1ec905e1e2b3d8a950a5862836ce08b47f441d1cfc2f36a0eda28f9",
    ),
    "quadratic_anti_tree": (
        "baa824136d8195856034e3434d24c4687b8065049a2129a7d2ab5aff8e7a223f",
        "832216aa8030255772ba931ccf3f37d915b6943d24648ea90e4058f5dc767caa",
    ),
    "geom_mass_anti_tree": (
        "3697655603cd4d3b4ac898fb4bef05e7597120f14a86ccc1a29afedf3dd242da",
        "ad72cffed02b721c7931a734c047a7d08a14620339bb9d60327c16d09c8a0107",
    ),
    "bilateral_mixed": (
        "d875dd3965abfbc060d6dcd9ab84efc43021feb3caa122b9de7d8a4bbe8b69fc",
        "0174f394b01f37ba84357c093c0b0554018b85116458bdd1eec7a83a68a10d83",
    ),
    "pendant_boundary": (
        "19ce8f43ee3d74b194e4c498058f53204f15aed7dfa95164a48619fa21488a84",
        "c2126f8f195017b271a3865d11a9f68485cc4227a80ff033568f3ee690285b70",
    ),
    "pendant_instability": (
        "d33fc1192cca90c508d789b578a090374d6aef4fc515fbe300b87e568ea08141",
        "0796caff3faf0c02204fe712e8c00ca2eab9613ce1cab34cdcb2f927fa1411dd",
    ),
    "star_instability": (
        "d85395b47c50d7ce266606641027a1817db56372c8e8bd0708ba07bb5d499efe",
        "289bc788e48c6f531d7c55dbd9700de9445ff53c397697bd3e1768a964db6e6e",
    ),
    "ladder_instability": (
        "53cbb93f9cbaa87d872aab421c24607a441e862d11a48deb2d569ffb8cc23087",
        "d46fbe2c270f4c6f8b76745beb014b929a55339a694ad42d954d103904504130",
    ),
}


CASES = pinned_cases()


@functools.cache
def float_canary():
    """sha256 of every sequence value and complement sum the cases read.

    ``--json`` prints full-precision floats, and numpy builds differ in
    the last bit of pow, exp and log (with and without AVX-512, say);
    the rest of the arithmetic is exactly rounded.  The JSON pins hold
    where this digest matches the recording platform's.
    """
    h = hashlib.sha256()
    for argv, text in CASES.values():
        p = gallery(argv[-1]).profile if argv[1] == "--family" else parse_profile_text(text)
        for label in ("boundary", "measure", "killing"):
            h.update(p.values(label, 257).tobytes())
        h.update(repr((p.total_measure(), p.total_killing(), p.measure_beyond(255))).encode())
    return h.hexdigest()


RECORDED_CANARY = "49c9ab9d0093dfeebab4df6ea644354a661faa5714085fc94512d045e105f9bc"


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("mode", ["text", "json"])
def test_analyze_bytes_are_pinned(case, mode):
    argv, text = CASES[case]
    if mode == "json":
        if float_canary() != RECORDED_CANARY:
            pytest.skip("this numpy rounds pow/exp/log differently from the recording platform")
        argv = argv + ["--json"]
    assert digest(argv, text) == PINS[case][mode == "json"]


@pytest.mark.parametrize("depth", EMIT_DEPTHS)
@pytest.mark.parametrize("name", list(GALLERY))
def test_emitted_graph_bytes_are_pinned(name, depth):
    argv = ["family", "--name", name, "--depth", str(depth), "--emit", "graph"]
    assert digest(argv, "") == EMIT_PINS[name][EMIT_DEPTHS.index(depth)]


if __name__ == "__main__":
    print(f'RECORDED_CANARY = "{float_canary()}"')
    for case, (argv, text) in CASES.items():
        print(f'    "{case}": (\n        "{digest(argv, text)}",')
        print(f'        "{digest(argv + ["--json"], text)}",\n    ),')
    print("EMIT_PINS = {")
    for name in GALLERY:
        print(f'    "{name}": (')
        for depth in EMIT_DEPTHS:
            argv = ["family", "--name", name, "--depth", str(depth), "--emit", "graph"]
            print(f'        "{digest(argv, "")}",')
        print("    ),")
    print("}")
