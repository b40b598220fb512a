"""Golden digests: the SHA-256 of every command's output at small fixed flags.

These pin output bytes.  A change that claims to keep the bytes keeps every
digest here; a change that moves bytes on purpose re-pins the digests it
moved and says why.  `pgpb` and `sqforr` are also run at two thread counts,
which must not change a byte.

The protocol transcript is further compared, byte for byte, with the
oracle below: `json.dumps(indent=2, sort_keys=True)` over one dict per
challenge, the construction the CLI's chunked writer replaces.  The writer
is also held to it on synthetic transcripts whose keys sit at every
digit-count edge, which real seeds do not reach.
"""

import dataclasses
import hashlib
import io
import json

import numpy as np
import pytest

from certlab import __version__, cli, devices, protocol
from certlab.cli import main

# (id, argv) with JSON written to --out (LLQ1 bytes for llqsv).
CASES = [
    ("wht", ["wht", "--n", "5", "--seed", "7"]),
    ("pgpb-honest-t1", ["pgpb", "--n", "6", "--trials", "20000", "--seed", "12",
                        "--threads", "1"]),
    ("pgpb-honest-t2", ["pgpb", "--n", "6", "--trials", "20000", "--seed", "12",
                        "--threads", "2"]),
    ("pgpb-uniform", ["pgpb", "--n", "6", "--trials", "3000", "--sampler", "uniform",
                      "--seed", "3"]),
    ("hog-honest", ["hog", "--n", "6", "--samples", "2000", "--seed", "4"]),
    ("hog-uniform", ["hog", "--n", "6", "--samples", "2000", "--sampler", "uniform",
                     "--seed", "4"]),
    ("sqforr-conditional-t1", ["sqforr", "--n", "6", "--c", "1", "--trials", "10000",
                               "--seed", "2", "--threads", "1"]),
    ("sqforr-conditional-t2", ["sqforr", "--n", "6", "--c", "1", "--trials", "10000",
                               "--seed", "2", "--threads", "2"]),
    ("sqforr-plain", ["sqforr", "--n", "6", "--c", "1", "--trials", "3000",
                      "--estimator", "plain", "--seed", "2"]),
    ("sqforr-uniform-pairs", ["sqforr", "--n", "6", "--c", "1", "--trials", "3000",
                              "--uniform-pairs", "--seed", "2"]),
    ("rhog", ["rhog", "--n", "6", "--c", "1", "--trials", "3000", "--seed", "3"]),
    ("rhog-uniform-pairs", ["rhog", "--n", "6", "--c", "1", "--trials", "3000",
                            "--uniform-pairs", "--seed", "3"]),
    ("rhog-uniform-sampler", ["rhog", "--n", "6", "--c", "1", "--trials", "3000",
                              "--uniform-sampler", "--seed", "3"]),
    # the float pair path over many transform blocks and a ragged tail
    ("sqforr-conditional-n10", ["sqforr", "--n", "10", "--c", "1", "--trials", "5000",
                                "--estimator", "conditional", "--seed", "2"]),
    ("rhog-n9", ["rhog", "--n", "9", "--c", "1", "--trials", "5000", "--seed", "3"]),
    ("perturb", ["perturb", "--n", "6", "--seed", "5"]),
    ("derandomize", ["derandomize", "--device", "biased:0.98", "--n", "4",
                     "--budget", "2000", "--seeds", "10", "--seed", "6"]),
    ("derandomize-honest", ["derandomize", "--device", "honest", "--n", "4",
                            "--budget", "500", "--seeds", "10", "--seed", "6"]),
    ("derandomize-uniform", ["derandomize", "--device", "uniform", "--n", "4",
                             "--budget", "500", "--seeds", "10", "--seed", "6"]),
    ("llqsv-fourier", ["llqsv", "--n", "5", "--t", "300", "--case", "fourier",
                       "--seed", "7"]),
    ("llqsv-uniform", ["llqsv", "--n", "5", "--t", "300", "--case", "uniform",
                       "--seed", "7"]),
    ("check-all", ["check-all", "--seed", "0"]),
]

# (id, n, T, device, claimed_q, seed)
PROTOCOL_CASES = [
    ("n1-t1-honest", 1, 1, "honest", "none", 0),
    ("n1-t4097-honest-argmax", 1, 4097, "honest", "argmax", 0),
    ("n6-t1-uniform", 6, 1, "uniform", "none", 0),
    ("n6-t4097-honest-argmax", 6, 4097, "honest", "argmax", 0),
    ("n6-t4097-uniform-argmax", 6, 4097, "uniform", "argmax", 0),
    ("n6-t4097-argmax-argmax", 6, 4097, "argmax", "argmax", 0),
    ("n6-t4097-biased", 6, 4097, "biased:0.5", "none", 0),
    ("n12-t1-argmax-argmax", 12, 1, "argmax", "argmax", 0),
    ("n12-t4097-honest", 12, 4097, "honest", "none", 0),
    ("n6-t4097-biased-argmax-maxseed", 6, 4097, "biased:0.5", "argmax",
     0xFFFFFFFFFFFFFFFF),
]

DIGESTS = {
    "wht":
        "82ea5067adc2135e8041c326932788039dbde2c5c4d3e215686397a53534d12c",
    "pgpb-honest-t1":
        "ef3c23b8624c89267b54a25ac62894da9e137a5bbd05a2250cf3f9c1e00a1008",
    "pgpb-honest-t2":
        "ef3c23b8624c89267b54a25ac62894da9e137a5bbd05a2250cf3f9c1e00a1008",
    "pgpb-uniform":
        "626c4541851b954ae939d96b8369b83349027e84e3cc9b36a99dce80e7679513",
    "hog-honest":
        "9a829c718e915f38526822ca200a9d6e375d9f11fd6553e00d49f77d253f6a9a",
    "hog-uniform":
        "8268954198228a21176a6cc292fc0eabfd388fcafa54d8c7b20a662f47a9ea50",
    "sqforr-conditional-t1":
        "c971226af62fce4a99f15a61fa45123c86814a1fa2ce5dbb8803168b125130c9",
    "sqforr-conditional-t2":
        "c971226af62fce4a99f15a61fa45123c86814a1fa2ce5dbb8803168b125130c9",
    "sqforr-plain":
        "ae013f4a4f62177d1f3ac46c7c8da1187dce1af8c210bc74be92cecc3bc989f1",
    "sqforr-uniform-pairs":
        "7dcbf5be3ab85a48350e84027d1234a93792c709ea64b484bdeaade780450461",
    "rhog":
        "756508ffbe20101ca04be27dcc7d77184e2739c64638f8c0e1fa529c74118abe",
    "rhog-uniform-pairs":
        "37b151969cdffb838db3e495bfa2107743fbb7729833baab09dd7a17166f307c",
    "rhog-uniform-sampler":
        "35a0bb972c3c7778c27418c0c1ea869144a0a30c25ca1dd5046843433ea5be7c",
    # pinned after float rows moved from the radix-2 butterfly to the
    # Kronecker GEMM kernel: "ci99" moved in its last digit (...878 -> ...877)
    "sqforr-conditional-n10":
        "91c9c4271012be60fc34a82509f38890d3003539f9c620888a9253b85d171104",
    "rhog-n9":
        "597056b57b1e34baa5548739caabe31cd1ed8c8903e3e14f5aacdd220cf18a6c",
    "perturb":
        "37c31fb4f44a5b916ff42627b0cfa66f9208e2b592025b7d391dc419ff049456",
    "derandomize":
        "47ed4886d72928cbf4b3980984c7b529ac8d07454169387cb1dfd16bf887ba88",
    "derandomize-honest":
        "5fd923d7b40fe8634792d65600758f79a470bcd15c6bf4d08bd9ef369c01d8b1",
    "derandomize-uniform":
        "5c016100184e74020a495745d0dfcf43535f07901922642c9448ea26ba191e68",
    "llqsv-fourier":
        "8844b3cf1febdf795c2dc8a549fc83121deb7bdf8f312fc8f31550156188b90e",
    "llqsv-uniform":
        "129196e7c1577cf2879069f43e8556ea827d515b7f365375dc16f3d0d36484eb",
    # re-pinned when check-all came to run the nine commands themselves, at
    # fixed flags with --check, in place of its own copies of their code
    # on streams of its own: the 25 `<label>-<record>` names keep their
    # order, and the numbers of the non-protocol lines are now those the
    # commands print (the six protocol lines are unchanged)
    "check-all":
        "fca85d9e4e6e61bf25bb31a3f96dd77c7f056f0177f534ea8427aa549cbdf397",
    "protocol-n1-t1-honest":
        "8468365759daad38a65099a6494d75d7a156e5032ad1b9454b64b595a0f16d51",
    "protocol-n1-t4097-honest-argmax":
        "a58e2afd1f07efc7842eb0fa5ff6da933f3d46f1a8a54fbce48f3fd4b626e700",
    "protocol-n6-t1-uniform":
        "89454f1f9fb5cc02f1bf3befbee164f3cb9839f1fcab1a9f8c8763ecd7fb9079",
    "protocol-n6-t4097-honest-argmax":
        "621578a939881524e14f4ddfb07968859206e70f78922a821a7b36f6967ad9fa",
    "protocol-n6-t4097-uniform-argmax":
        "4b83306fd2275ff78d02891a24f81ed5607ac0b66ad1cb2999a6fa723b014d0d",
    "protocol-n6-t4097-argmax-argmax":
        "d938d18243cf9e5f4a6c9f317bc43819a98f73832f03c21e2519d96673aa76ee",
    "protocol-n6-t4097-biased":
        "2eccc0561e9c7cf843c4391b05ee74994c7d57d9f0391cc4d866253d80331ee6",
    "protocol-n12-t1-argmax-argmax":
        "7a2906a79c1ddedfd4205b73b4216259a73a352918e59fd4316d46c370c8d1fb",
    "protocol-n12-t4097-honest":
        "b38c82062d383ec413fc53018c6581a39769aea818de66e55f28b98f71b10130",
    "protocol-n6-t4097-biased-argmax-maxseed":
        "3a712e3606769f9ee43f5e28600d7841280c9d541bb93bb2e6c75eee48f5d49c",
}


def protocol_argv(n, t, device, claimed_q, seed):
    return ["protocol", "--n", str(n), "--t", str(t), "--device", device,
            "--claimed-q", claimed_q, "--seed", hex(seed)]


def transcript_oracle(tr, flags: dict, label: str) -> bytes:
    """The transcript as json.dumps writes it from one dict per challenge."""
    results = protocol.transcript_to_dict(tr)
    results["challenges"] = [
        {"key": int(k), "s": int(s), "p": float(p)}
        for k, s, p in zip(tr.challenge_keys, tr.samples, tr.probs)
    ]
    results["device"] = label
    payload = {
        "version": __version__,
        "command": "protocol",
        "config": flags,
        "results": results,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def protocol_oracle(n, t, device, claimed_q, seed) -> bytes:
    dev = devices.parse_device(device)
    cfg = protocol.ProtocolConfig(n=n, T=t, b=1.5, eps_hog=0.5,
                                  extractor_output_bits=256, seed=seed)
    tr = protocol.run_protocol(cfg, dev, None if claimed_q == "none" else claimed_q)
    flags = {"b": 1.5, "claimed_q": claimed_q, "device": device, "eps": 0.5,
             "extract_bits": 256, "n": n, "seed": seed, "t": t}
    return transcript_oracle(tr, flags, dev.label)


def output_of(argv, tmp_path) -> bytes:
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_command_digest(name, argv, tmp_path):
    assert sha(output_of(argv, tmp_path)) == DIGESTS[name]


@pytest.mark.parametrize("stem", ["pgpb-honest", "sqforr-conditional"])
def test_threads_do_not_move_digest(stem):
    assert DIGESTS[stem + "-t1"] == DIGESTS[stem + "-t2"]


@pytest.mark.parametrize("name,n,t,device,claimed_q,seed", PROTOCOL_CASES,
                         ids=[c[0] for c in PROTOCOL_CASES])
def test_protocol_transcript_bytes(name, n, t, device, claimed_q, seed,
                                   tmp_path, capsys):
    argv = protocol_argv(n, t, device, claimed_q, seed)
    written = output_of(argv, tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == written
    assert written == protocol_oracle(n, t, device, claimed_q, seed)
    assert sha(written) == DIGESTS["protocol-" + name]


# Keys at digit-count edges, at the edges of the writer's 4-digit groups
# (10^4) and 8-digit limbs (10^8, 10^16), and at both ends of 64 bits.  Real
# seeds give keys of 18 to 20 digits, never 0 or one below 10^18.
EDGE_KEYS = [0, 9, 10, 99, 100, 10**4 - 1, 10**4, 10**8 - 1, 10**8,
             10**16 - 1, 10**16, 10**18 - 1, 10**18, 2**64 - 1]


def synthetic_transcript(n, keys, samples):
    """A transcript with the given keys and answers, and p = w^2/N^2 for w
    running through 0..N (0.0 and 1.0 included)."""
    size = 1 << n
    w = np.arange(len(samples)) % (size + 1)
    probs = (w * w) / float(size * size)
    cfg = protocol.ProtocolConfig(n=n, T=len(samples), b=1.5, eps_hog=0.5)
    return protocol.ProtocolTranscript(
        config=cfg, challenge_keys=np.array(keys, dtype=np.uint64),
        samples=np.array(samples, dtype=np.int64), probs=probs,
        S=float(probs.sum()), score_pass=False, V=None, entropy_verdict=None,
        min_entropy_total=0.0, extracted_bits="")


def written_by_cli(tr, flags, label) -> bytes:
    results = protocol.transcript_to_dict(tr)
    results["device"] = label
    results["challenges"] = cli._CHALLENGES
    payload = {"version": __version__, "command": "protocol",
               "config": flags, "results": results}
    buf = io.StringIO()
    cli._write_transcript(buf, payload, tr)
    return buf.getvalue().encode()


@pytest.mark.parametrize("n", [1, 6, 12, 14])
def test_challenges_writer_edge_values(n):
    # every edge key with s = 0 and s = N - 1 (5 digits at n = 14) at T = 1,
    # then T one past a writer chunk, its last row alone in the last chunk
    size = 1 << n
    flags = {"n": n, "seed": 0}
    for key in EDGE_KEYS:
        for s in (0, size - 1):
            tr = synthetic_transcript(n, [key], [s])
            assert written_by_cli(tr, flags, "honest") == transcript_oracle(
                tr, flags, "honest")
    T = cli._CHUNK + 1
    i = np.arange(T)
    keys = np.array(EDGE_KEYS, dtype=np.uint64)[(i - T) % len(EDGE_KEYS)]
    tr = synthetic_transcript(n, keys, np.where(i % 2 == 0, size - 1, 0))
    assert tr.challenge_keys[-1] == 2**64 - 1
    assert written_by_cli(tr, flags, "honest") == transcript_oracle(
        tr, flags, "honest")


@pytest.mark.parametrize("p", [0.5, np.nextafter(9 / 4096, 1.0), -0.0625,
                               1.5, float("nan")])
def test_challenges_writer_refuses_p_off_the_grid(p):
    # the writer indexes p by |w| = rint(sqrt(p) N); a p that is not
    # w^2/N^2 for an integer w would be written as another value
    tr = synthetic_transcript(6, [1, 2, 3], [0, 1, 2])
    tr = dataclasses.replace(tr, probs=np.array([9 / 4096, p, 1.0]))
    with pytest.raises(ValueError, match="w\\^2/N\\^2"):
        list(cli._challenges_json(tr))
