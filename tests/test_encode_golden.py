"""Golden `encode` hashes: the coded CSV, schema, mapping and stdout.

`encode` surveys a string-valued CSV, types its columns, and writes coded
rows, a schema and the value->code maps. These hashes pin all four
outputs for the inputs the command must keep encoding the same way: the
`test_cli` inputs, a quoted field that holds the delimiter and a line
break, a constant numeric column (its range widens by 0.5 each way), a
one-valued categorical column (it gains `__other__`), a label in column
0 with dropped and forced-categorical columns, and another delimiter.
Paths are relative to a temporary working directory, so stdout is the
same on every machine.

A change that is meant to move an output must say why and re-record
these hashes with the same inputs.
"""

import hashlib

import pytest

from streamtree import cli


def _trains_rows() -> str:
    lines = []
    for k in range(1500):
        x = (k % 100) / 100.0
        lines.append(f"{x},{'hot' if x > 0.5 else 'cold'}")
    return "\n".join(lines) + "\n"


# name -> (raw CSV text, extra flags)
INPUTS = {
    "header-mixed": (
        "temp,sky,play\n21.5,sunny,yes\n18.0,rain,no\n25.2,sunny,yes\n15.5,cloudy,no\n",
        ["--has-header"],
    ),
    "late-strings": ("1,yes\n2,no\nlow,yes\n2,no\n1,yes\n2,no\n", []),
    "forced-and-drop": ("0,1.5,3,a\n1,2.5,4,b\n2,3.5,3,a\n",
                        ["--categorical", "2", "--drop", "0"]),
    "trains": (_trains_rows(), []),
    "quoted-field": (
        'x,note,y\n1.5,"a,b\nc",yes\n2.5,plain,no\n0.5,"a,b\nc",no\n',
        ["--has-header"],
    ),
    "constant-numeric": ("3.0,a\n3.0,b\n3.0,a\n", []),
    "one-valued-categorical": ("1.0,red,a\n2.0,red,b\n3.0,red,a\n", []),
    "label-first": (
        "yes,1,2.5,x\nno,2,3.5,y\nyes,3,4.5,x\nno,1,0.5,z\n",
        ["--label-column", "0", "--drop", "3", "--categorical", "1"],
    ),
    "semicolons": ("a;b;c\n1;x;p\n2;y;q\n", ["--delimiter", ";", "--has-header"]),
}

# name -> sha256 of (coded CSV, schema, mapping, stdout)
GOLDEN = {
    "constant-numeric": (
        "efc692561809c27b4067fb9776065da5c8ceccaf9cdbb64ec4ddfc93a7b63013",
        "470bbdd778f9b479d11d2a0e481e5eb2cad7b17b199cea3b5e1677d92d6209c2",
        "a325db505467771214391fcb53c439df9b8ade1e325329bfbbe7f0407ff01a63",
        "922b84958cfa3d3666af2d5d3084c49686e68fda2ea919891e6085bd314911fd",
    ),
    "forced-and-drop": (
        "26dd247711497dfce142776e832f7ee8a7e4854b18d106c5a9f363e46e4dd695",
        "487a6c6e5b6c323d5822bf805aba51ff10f61e4863ef870dc41a57b549397e49",
        "e006663d4dda1710d6f57109c345bf4f9a973c04a4a329f6561e6290e9b470fb",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "header-mixed": (
        "7cef695affa7febadd1dae92d99579dd1dc8bf937f6ec8eb9d5054f5f62ef7de",
        "f7704cad2ced250e0ef7e61f911a8c5c4b34da9eeaaf90ace2e3741d1638df96",
        "94421ae546d445e80f83e70c72f14462908b2c45f38ba949812a17324428bff0",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "label-first": (
        "0bac95827ac0eb9ff0425260fedf26e73edd1670ee2b7a356479eb0c08c6b4b4",
        "54e4d5597c51d2ad84e648936d56fde5cc5ffb0e9439f3dcae5ff4438bca76c0",
        "bb6c4206997ed99143732977cf4522fcb47a5c295374ebd3a48845cdb08a8e70",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "late-strings": (
        "6a4eafc4bc31426fa6f990bfaf87181c4487ec3f8b103263cc176c1559cbf116",
        "93fa5bd32d2cc948aa56ed910b4c5118a6fb5923c1b1cd65ff127397810db5b7",
        "77211be1c63f6af55da0918cc83b36ffb5ce12fc4704b3fedf8f3167c4dfc316",
        "922b84958cfa3d3666af2d5d3084c49686e68fda2ea919891e6085bd314911fd",
    ),
    "one-valued-categorical": (
        "93a446a1111e2486fa842015c05e761b61301adf8add007117a04dc6c27ae7bc",
        "d0fadc9ded2a9777bf784c3da6c5bb30b1622db9c63441596875c6d94c3a4836",
        "3e6a21b8f8161fb3166699fb7f4299568c8562588cc74559f37a2d68ce5390ca",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "quoted-field": (
        "71e6ea2eb7d25e145e20abe9913da76793628b3141b2fd59e6ccca68afb9af12",
        "162de4ffd60ace7aef5eb1bfa1af521ac2f1442ef53781e0f7ae0f8dafbcb255",
        "5bbf1024896f9887f52df33dd1692afeac0733ef98ee283912e2e46f36acd6f6",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "semicolons": (
        "39f0115fee7380b482f6409d6b62463dafe2e2c665c9223068e16f8a3bcec160",
        "c793778aaa22afc865fe440cd98122b3fec30b248155d2fd7bd45923a5c3e010",
        "f5e1a3cba770a62817ff8f92ca6a78d65d5431a188012a6612a6f13889efb79c",
        "5f859e15cf21a868a9b6f71bfd95b048afc54e4e2daa77c97b5cf2ed8459afd9",
    ),
    "trains": (
        "a011dab49d22f2e4ac1f99e85686e46666a3c1b333389d593e075e76f8797e97",
        "6a43ee34a9efeec1d9d1db54fbd5153b93c762079421f143aad8bf458c3e694f",
        "257e19ce37f813d48693484fe393d84c710073597d0f846363ad7c6e7343fe39",
        "922b84958cfa3d3666af2d5d3084c49686e68fda2ea919891e6085bd314911fd",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_encode_outputs_match_golden_hash(name, tmp_path, monkeypatch, capsys):
    text, flags = INPUTS[name]
    monkeypatch.chdir(tmp_path)
    with open("raw.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert cli.run(["encode", "--data", "raw.csv", "--out", "coded.csv",
                    "--schema-out", "coded.schema.json", "--mapping-out", "map.json",
                    *flags]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    got = tuple(hashlib.sha256(b).hexdigest() for b in (
        (tmp_path / "coded.csv").read_bytes(),
        (tmp_path / "coded.schema.json").read_bytes(),
        (tmp_path / "map.json").read_bytes(),
        stdout,
    ))
    assert got == GOLDEN[name]
