"""Byte-identity gate: pinned SHA-256 digests of CLI output.

Algorithm changes (enumeration, covers, generators, scoring, emission)
must leave these outputs byte for byte as they are.  A digest that moves
means the output changed; it may be re-pinned only by a change that means
to alter the output and says so.
"""
import hashlib

import pytest

from becr.cli import EXIT_OK, main
from conftest import DATA

DAVIS = str(DATA / "davis.cxt")
GEN_793 = ["--objects", "793", "--attributes", "10", "--density", "0.41",
           "--seed", "42"]
# alpha's per-member pass runs on 85% of its concepts, whose intents hold
# a member outside ∩H; its 32 columns are distinct, so both base rules
# print the same table.  Its 14 row classes are fewer than its 32
# attributes, so its concepts are enumerated on the class side
GEN_14x32 = ["--objects", "14", "--attributes", "32", "--density", "0.6",
             "--seed", "42"]
# 755 concepts, 296 of them with one minimal generator, whose stability
# the count from F' = A gives, and a 28-attribute bottom concept: the
# widest intents whose stability is pinned
GEN_14x28 = ["--objects", "14", "--attributes", "28", "--density", "0.6",
             "--seed", "42"]
# 20,000 objects in 970 row classes, about 20 objects per class: the
# object columns are read off one digit string per class
GEN_20000x10 = ["--objects", "20000", "--attributes", "10", "--density",
                "0.3", "--seed", "42"]

DIGESTS = {
    ("davis", "concepts"):
        "8d7805c99a3f377ceed0d2c30d936268c7055ccb1506cc472d65a12c5961cd92",
    ("davis", "bench", "worked-example"):
        "49c906e0d6262204a094da0006b0c904d137ea3515669f32c82135b9814168fd",
    ("davis", "bench", "literal"):
        "782d55156d4a95d27c20e3316d28540c4cd9470d16400fb3c5e11903fa4c2da8",
    ("793x10", "concepts"):
        "54d48015dac190c94a234076a2aa1e1b56f51022c135f995bb57840d2ff1fbc8",
    ("793x10", "bench", "worked-example"):
        "c8af24c4115929bbd6f9851f5506cc472a5cdcd0a5f6f4a300a4178411c1d3c1",
    ("793x10", "bench", "literal"):
        "c8af24c4115929bbd6f9851f5506cc472a5cdcd0a5f6f4a300a4178411c1d3c1",
    ("davis", "relevance", "becr"):
        "349dccc1b532f6151e35414cfb0c73f0db760433516641afd7007a6b43a77257",
    ("davis", "relevance", "stability"):
        "b06146e15a9596609330d9252cf2aa094bbd7f513e13bb6c390295586030e892",
    ("davis", "relevance", "both"):
        "98514996d60793e221c3d66b0c768b2585c13b21db22add2a8819ce6271eafc4",
    ("davis", "relevance", "becr", "literal"):
        "ac7212c833df11fe9c54c67462228d4b76f64d93792d9ba37e3da9f99ae52cce",
    ("793x10", "relevance", "becr"):
        "45bf1f0e84739f3da3d7fe1f7fe09891f847b71a1e211132d2101893be733413",
    ("793x10", "relevance", "stability"):
        "18872943a4f5c5f036353f87bd75cb9ca1d66ef4eaf51fc9b520ebfca7639177",
    ("793x10", "relevance", "both"):
        "b256e602db32e068716ccced06856bed9926ea092bf55f8ed39397ae2eb38d2e",
    ("14x32", "concepts"):
        "6a00bbfd46ff7948abadc765d3e72a5eada814e78718bad6ba720f14596d58be",
    ("14x32", "relevance", "becr", "worked-example"):
        "ee07c55bbe8089873fdd48ff0f503203361fbf48a695eaca17e5d8a52a869e66",
    ("14x32", "relevance", "becr", "literal"):
        "ee07c55bbe8089873fdd48ff0f503203361fbf48a695eaca17e5d8a52a869e66",
    ("14x28", "relevance", "stability"):
        "3ee2b27816fe646b80427146d1f70e709bea5d2d972c30f5b6b5675a17ba2d8e",
    ("14x28", "relevance", "both"):
        "76be16cfc95ce70bfd8d78a0e1e71bb13c26bbb4ae1e254538a4068727d0a7f4",
    ("20000x10", "relevance", "both"):
        "fac6440c1db5539cbc3359b12a76121c155306f1393e2f661b4fc87778c54f95",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("digests")
    inputs = {"davis": DAVIS}
    for name, argv in (("793x10", GEN_793), ("14x32", GEN_14x32),
                       ("14x28", GEN_14x28), ("20000x10", GEN_20000x10)):
        generated = folder / f"coin{name}.cxt"
        assert main(["generate", *argv, "--output", str(generated)]) == EXIT_OK
        inputs[name] = str(generated)
    return inputs


@pytest.mark.parametrize("key", list(DIGESTS), ids="-".join)
def test_output_digest(key, inputs, capsys):
    name, command, *rest = key
    argv = [command, inputs[name]]
    if command == "bench":  # rest: base rule
        argv += ["--no-timing", "--base-rule", *rest]
    elif command == "relevance":  # rest: index, then an optional base rule
        index, *rule = rest
        argv += ["--index", index]
        if rule:
            argv += ["--base-rule", *rule]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
