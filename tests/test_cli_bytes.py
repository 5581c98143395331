"""Byte pins for the command-line front end.

Each command line below is run in process; its exit code, stdout (with the
elapsed time set to 0) and stderr are hashed together and compared with the
SHA-256 recorded when the pin was added. A change that alters any output
byte of these commands, refusals included, fails here.
"""

import hashlib
import json
import re

import pytest

from cycpsi.cli import main

COEFF = "coeff --p 3 --a 2 --n 15 --r 1 --l 0"
T_COEFF = "coeff --p 3 --a 1 --n 5 --r 2 --l 1 --t-coeff"
TABLE = "table --p 3 --a 1 --n-max 6 --r 0,1 --l 0,1"
PSI_ROW = "psi-check --p 3 --a 2 --n 7 --r -4 --l-max 2"
PSI_GRID = "verify psi-identity --p 3 --a 2 --n-max 12 --r=0,-3,7 --coeff-degree 2"
VERIFY_PASS = "verify thm1.5 --p 3 --a 1 --l 0 --m-max 6"
VERIFY_FAIL = "verify self-test"
EXPLORE = "explore rem1.2 --p 3 --a 1 --n-max 6 --l-max 1"

FORMATS = ("json", "csv", "plain")

COMMANDS = [
    *(f"{command} --format {fmt}" for command in (COEFF, T_COEFF, TABLE, PSI_ROW, PSI_GRID,
                                                  VERIFY_PASS, VERIFY_FAIL, EXPLORE)
      for fmt in FORMATS),
    "coeff --p 2 --a 1 --n 0 --r 0 --l 0",
    "coeff --p 3 --a 1 --n 4 --r -2 --l 2 --t-coeff",
    "coeff --p 4 --a 1 --n 1 --r 0 --l 0",
    "coeff --p 3 --a 1 --n -2 --r 0 --l 0",
    "coeff --p 3 --a 0 --n 1 --r 0 --l 0",
    "coeff --p 3 --a 1 --n 1 --r 0 --l -1",
    "coeff --p 3 --a 1 --n 1 --r 0 --l 0 --out /nonexistent-dir-xyz/c.txt",
    "table --p 5 --a 2 --n-min 3 --n-max 9 --r=-7,4 --l 2 --format plain",
    "table --p 3 --a 1 --n-min 5 --n-max 2",
    "table --p 3 --a 1 --n-max 2 --l -1",
    "table --p 3 --a 1 --n-max 2 --r x",
    "table --p 4 --a 1 --n-max 2",
    "table --p 3 --a 0 --n-max 2",
    "psi-check --p 3 --a 1 --n 4",
    "psi-check --p 2 --a 1",
    "psi-check --p 3 --a 0 --n 3",
    "psi-check --p 3 --a 1 --n 3 --l-max -1",
    "psi-check --p 4 --a 1 --n 3",
    "verify thm9.9",
    "verify thm1.1 --a 1",
    "verify thm1.0 --n 2 --n-max 3",
    "verify thm1.0 --p 4",
    "verify thm1.0 --p x",
    "verify thm1.0 --p 3 --n-min 4 --n-max 2",
    "explore rem9.9",
    "explore rem1.2 --n-min 5 --n-max 2",
]

ELAPSED = [
    (re.compile(r'"elapsed_ms": \d+'), '"elapsed_ms": 0'),
    (re.compile(r"^elapsed : \d+ ms$", re.M), "elapsed : 0 ms"),
    (re.compile(r"^([^,\n]+,\d+,(?:pass|fail),)\d+,", re.M), r"\g<1>0,"),
]


def scrub(out: str) -> str:
    for pattern, replacement in ELAPSED:
        out = pattern.sub(replacement, out)
    return out


def digest(command: str, capsys) -> str:
    code = main(command.split())
    captured = capsys.readouterr()
    blob = json.dumps([code, scrub(captured.out), captured.err])
    return hashlib.sha256(blob.encode()).hexdigest()


DIGESTS = {
    "coeff --p 3 --a 2 --n 15 --r 1 --l 0 --format json":
        "1970ad33bdd8230ff38733b0b73b9a426f404d52bca298cf49d9f4a6c14b0bc8",
    "coeff --p 3 --a 2 --n 15 --r 1 --l 0 --format csv":
        "3437394c091714042cb219d53dea02c054f2a675a47423af1212f2800a29a887",
    "coeff --p 3 --a 2 --n 15 --r 1 --l 0 --format plain":
        "738b2d7fea0efb71b245a9e188991a8efd405b732bdb9c0b5606d994ce3aefca",
    "coeff --p 3 --a 1 --n 5 --r 2 --l 1 --t-coeff --format json":
        "ea95cec206b77eda8987e0b133d1bc5bdae7053f3fd5efb3cc6a0e81c21e7985",
    "coeff --p 3 --a 1 --n 5 --r 2 --l 1 --t-coeff --format csv":
        "c8101380d7e6a8df71f9c6a2e1e26d10b61b3065f9dbc4d340fb9722f8ea6fc9",
    "coeff --p 3 --a 1 --n 5 --r 2 --l 1 --t-coeff --format plain":
        "bf332f34318c237be943e82d82198e407478f926d7bfac7612e7e4eb034e09f1",
    "table --p 3 --a 1 --n-max 6 --r 0,1 --l 0,1 --format json":
        "4883c9f52ea7a0f88fee1783430122ef3d83edd0d8824dba3681c29e0571e2b7",
    "table --p 3 --a 1 --n-max 6 --r 0,1 --l 0,1 --format csv":
        "10795bc7e3340c36500cb51230cca3844a09c2ce4b7918f77be311e5980f4084",
    "table --p 3 --a 1 --n-max 6 --r 0,1 --l 0,1 --format plain":
        "7ac48740dbdab377eea243fff9116d9b028e9f625cfe697d443d23468eac55f0",
    "psi-check --p 3 --a 2 --n 7 --r -4 --l-max 2 --format json":
        "494c5c84993d1b8ebb3c5ea298a16f5a588b0a35865abd6619ebfdb8b15dc0c5",
    "psi-check --p 3 --a 2 --n 7 --r -4 --l-max 2 --format csv":
        "2b4ba62383d4aa8b6886e70d10676901bc79e9607d5b025929137417f4e862bf",
    "psi-check --p 3 --a 2 --n 7 --r -4 --l-max 2 --format plain":
        "df3dbb1dae44eab2054bcaa6fc7a2de2d542daeea262d794b5d0c528e89bbdf2",
    "verify psi-identity --p 3 --a 2 --n-max 12 --r=0,-3,7 --coeff-degree 2 --format json":
        "87320b63b44e726db850d8b72f93f4023b86d0d57e27f7b481a9e4e3481b7ad6",
    "verify psi-identity --p 3 --a 2 --n-max 12 --r=0,-3,7 --coeff-degree 2 --format csv":
        "e114c515424c3cda3d9553a2f106ed18a51ce2d091df3be5c4b0026b0abb786b",
    "verify psi-identity --p 3 --a 2 --n-max 12 --r=0,-3,7 --coeff-degree 2 --format plain":
        "faab1fe1ff6764c348b2f2bfe7ff16504845d2cab3b9ddd1941d99895a5537b3",
    "verify thm1.5 --p 3 --a 1 --l 0 --m-max 6 --format json":
        "ebe8fbca44faaca0240e549fbabef70ae2c7bd7877ff6ab5e8d63808c75e12de",
    "verify thm1.5 --p 3 --a 1 --l 0 --m-max 6 --format csv":
        "e643b84e420b6ab3e86b8086f7223505c9eee80b9070da781be468edc20b0a60",
    "verify thm1.5 --p 3 --a 1 --l 0 --m-max 6 --format plain":
        "1c66baf5554ca1f3ef66a4a79e21f30959f3514c9721c2ce82c25c5b2d050f56",
    "verify self-test --format json":
        "974806b11845dae9c8fe1236e4599bac88b0387f4102664c833f27ba63d7e3c7",
    "verify self-test --format csv":
        "a0585ae9c81978af69208fd09f1531125c3175b53ddbfeea01995ea1375fbb8c",
    "verify self-test --format plain":
        "5f0058b5c41bb27c71aa9b728111de06ace98ca61e03a64e5c4f5383cde4648a",
    "explore rem1.2 --p 3 --a 1 --n-max 6 --l-max 1 --format json":
        "31dc6e71ee4c5ec1faa1582146e43fa8d5b5889eebd7d44da3cb9123f89b2838",
    "explore rem1.2 --p 3 --a 1 --n-max 6 --l-max 1 --format csv":
        "9a4af57114b532362ee96b46f103a9fcc356735efd476e378c379f5050cd0563",
    "explore rem1.2 --p 3 --a 1 --n-max 6 --l-max 1 --format plain":
        "f110878a4350809e203365ff52752642177d8cab36623571bc128d1032708a84",
    "coeff --p 2 --a 1 --n 0 --r 0 --l 0":
        "4d05196f87cbf3ce3d126afe8737b6e114ca86c99d5424c90804778ae8f31202",
    "coeff --p 3 --a 1 --n 4 --r -2 --l 2 --t-coeff":
        "2645b00e324127b2ceb3d8f669ce964aeeb1c9e4ce1db78f8f4893e4521b80f1",
    "coeff --p 4 --a 1 --n 1 --r 0 --l 0":
        "89d4128b57edc879bb0c2594bfcd3eec79619129c7899ad0d4947078122cf998",
    "coeff --p 3 --a 1 --n -2 --r 0 --l 0":
        "06a61f3e83a5020f64a87455e28c9fb8a5be9574c3c39ddc41826a989b37175a",
    "coeff --p 3 --a 0 --n 1 --r 0 --l 0":
        "943c529207920331fa7b189ac97a24c1aa7869a46c28daac5fd1867d469b913c",
    "coeff --p 3 --a 1 --n 1 --r 0 --l -1":
        "2402df870cd8da14020562e96c9f326526524c573685094a023f9a11bc6252d4",
    "coeff --p 3 --a 1 --n 1 --r 0 --l 0 --out /nonexistent-dir-xyz/c.txt":
        "757fd65d8eff47256e9025297cc68c3c69a3f38365a1dfd369f65bb394f21135",
    "table --p 5 --a 2 --n-min 3 --n-max 9 --r=-7,4 --l 2 --format plain":
        "51a4f0f3962a7a0271482ccbf405d606b9aa5f0920240713139c862efef23f1f",
    "table --p 3 --a 1 --n-min 5 --n-max 2":
        "d09d1c97b3aec4d2bf41466e4eff63d424fd32916fca36149f387d378eab4ec3",
    "table --p 3 --a 1 --n-max 2 --l -1":
        "7943e11c0a32bfb509e1a9de4ca866b50d88d0bdc16b96be8eff72ea7f5de816",
    "table --p 3 --a 1 --n-max 2 --r x":
        "f8abf5a36981005881b1073d5bbf2da10bebcf4a77754938eee79a13b9c943f8",
    "table --p 4 --a 1 --n-max 2":
        "89d4128b57edc879bb0c2594bfcd3eec79619129c7899ad0d4947078122cf998",
    "table --p 3 --a 0 --n-max 2":
        "943c529207920331fa7b189ac97a24c1aa7869a46c28daac5fd1867d469b913c",
    "psi-check --p 3 --a 1 --n 4":
        "562c6127fec77d5e80dd9cc37ae4e74284a27bbc8f4a1dd9760bc17f72806ea3",
    "psi-check --p 2 --a 1":
        "80d506f9013bc1844ba8611c7b2c43e8f51ddb64d555b9c1ac2f2bcebdec2f15",
    "psi-check --p 3 --a 0 --n 3":
        "943c529207920331fa7b189ac97a24c1aa7869a46c28daac5fd1867d469b913c",
    "psi-check --p 3 --a 1 --n 3 --l-max -1":
        "4d53fd3cf5465604508a814bb5c91a383b6b7a3e3cb6f629d397045b6bfac533",
    "psi-check --p 4 --a 1 --n 3":
        "89d4128b57edc879bb0c2594bfcd3eec79619129c7899ad0d4947078122cf998",
    "verify thm9.9":
        "94ba08ba307070a2700a0eba9b88d92a78ad77727754d565d9b2ca819f50e462",
    "verify thm1.1 --a 1":
        "5754dafde12ad0d8515eb91a187fecac60bc353d6c8d102364cbe8b0b459c1d8",
    "verify thm1.0 --n 2 --n-max 3":
        "2a988a197bbdb4330c72f4cace98b98af5ec5e3d57a72b87142abd00b5a66429",
    "verify thm1.0 --p 4":
        "89d4128b57edc879bb0c2594bfcd3eec79619129c7899ad0d4947078122cf998",
    "verify thm1.0 --p x":
        "18ab72f15d495818d50b0a796f0d61b5029bd0ccd9129d88b7a1fbbe27093483",
    "verify thm1.0 --p 3 --n-min 4 --n-max 2":
        "aada9a3e564f650c9d11de139a48415ba6276a1f388aef0db822f2321de02b71",
    "explore rem9.9":
        "172a7b26f4355776d5be5ab07e1581bf4a6f9fdc98a539c5f314dccf968e385c",
    "explore rem1.2 --n-min 5 --n-max 2":
        "d09d1c97b3aec4d2bf41466e4eff63d424fd32916fca36149f387d378eab4ec3",
}


def test_every_command_is_pinned():
    assert sorted(DIGESTS) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_bytes(command, capsys):
    assert digest(command, capsys) == DIGESTS[command]
