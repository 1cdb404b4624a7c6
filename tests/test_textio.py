import numpy as np

from msopt.objectives import make_reference
from msopt.optim import RunRecord
from msopt.textio import key_values, read_csv, read_key_values, write_csv, write_key_values

NAN, INF = float("nan"), float("inf")


def test_csv_bytes_pinned(tmp_path):
    # floats that need all 17 digits, the smallest subnormal, a signed zero and
    # the non-finite sentinels, under an integer first column (rows in
    # CSV_HEADER column order)
    record = RunRecord(
        table=np.array([
            [0, 0.1, 5e-324, -INF, 1e300, NAN],
            [10, 1 / 3, NAN, 1.0, -1e-300, 0.0],
            [123456789, -0.0, INF, 2.5, 0.0, 1e16],
        ]),
        metadata={},
        final_point=np.zeros(2),
    )
    record.save(tmp_path / "run.csv", tmp_path / "run.meta.txt")
    assert (tmp_path / "run.csv").read_bytes() == (
        b"step,objective,surrogate_objective,feasibility,riem_grad_norm,step_norm\n"
        b"0,0.10000000000000001,4.9406564584124654e-324,-inf,1.0000000000000001e+300,nan\n"
        b"10,0.33333333333333331,nan,1,-1e-300,0\n"
        b"123456789,-0,inf,2.5,0,10000000000000000\n"
    )
    # loss_trace.csv: the epoch index, then the loss
    trace = [0.1, -0.0, NAN]
    write_csv(tmp_path / "loss_trace.csv", "epoch,loss",
              np.column_stack([np.arange(len(trace)), trace]))
    assert (tmp_path / "loss_trace.csv").read_bytes() == (
        b"epoch,loss\n0,0.10000000000000001\n1,-0\n2,nan\n"
    )
    # no header, and a table without rows
    write_csv(tmp_path / "points.csv", None, np.array([[1 / 3, 2.0]]))
    assert (tmp_path / "points.csv").read_bytes() == b"0.33333333333333331,2\n"
    write_csv(tmp_path / "empty.csv", "a,b", np.zeros((0, 2)))
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_reference_csv_roundtrip(tmp_path):
    ref = make_reference("arc", horizon=4, dt=0.5, output_dim=2, amplitude=2.0)
    path = tmp_path / "ref.csv"
    with open(path, "w") as fh:
        for row in ref:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    assert np.array_equal(read_csv(path), ref)
    # one row still reads as a table
    path.write_text("1,2\n")
    assert np.array_equal(read_csv(path), [[1.0, 2.0]])


def test_key_values_render_and_read_back(tmp_path):
    pairs = [("name", "drgd"), ("count", 3), ("gamma", 0.1), ("flag", True), ("off", False),
             ("point", np.array([1 / 3, -0.0, 5e-324])), ("sizes", (128, 64)),
             ("sigmas", (0.2, 0.1)), ("artifact", "a.csv"), ("artifact", "b.csv")]
    text = key_values(pairs)
    assert text == (
        "name = drgd\ncount = 3\ngamma = 0.10000000000000001\nflag = true\noff = false\n"
        "point = 0.33333333333333331,-0,4.9406564584124654e-324\nsizes = 128,64\n"
        "sigmas = 0.20000000000000001,0.10000000000000001\n"
        "artifact = a.csv\nartifact = b.csv\n"
    )
    write_key_values(tmp_path / "meta.txt", pairs)
    assert (tmp_path / "meta.txt").read_text() == text
    with open(tmp_path / "meta.txt", "a") as fh:
        fh.write("\n = no key\n")
    values = read_key_values(tmp_path / "meta.txt")
    assert values["gamma"] == "0.10000000000000001" and float(values["gamma"]) == 0.1
    point = np.array([float(v) for v in values["point"].split(",")])
    assert np.array_equal(point, pairs[5][1]) and np.signbit(point[1])
    assert values["artifact"] == "b.csv"
    assert "" not in values
