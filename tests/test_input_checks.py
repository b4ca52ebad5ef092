"""Each input check of the public constructors and functions raises its
exception type from :mod:`sigma_opt.errors`."""

import numpy as np
import pytest

from sigma_opt import (
    Dataset,
    LabelSpec,
    Regularization,
    SvdGapSpec,
    full_operator,
    load_csv,
    make_objective,
    nystrom_approximation,
    poisson_scale,
)
from sigma_opt.core import spd_factor
from sigma_opt.errors import DomainError, InvalidDimensions, ParseError


def _csv(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return load_csv(path)


def _empty_index_set(_):
    model = make_objective("gaussian", Dataset(np.eye(2), np.zeros(2)))
    return model.reduced_gradient(np.zeros(2), np.array([], dtype=np.int64))


# case -> (call taking a temporary directory, exception type, message fragment)
CHECKS = {
    "dataset-A-not-2d": (lambda _: Dataset(np.zeros(3), np.zeros(3)), InvalidDimensions, "2-d"),
    "dataset-b-length": (lambda _: Dataset(np.zeros((3, 2)), np.zeros(2)), InvalidDimensions,
                         "does not match 3 rows"),
    "regularization-negative-weight": (lambda _: Regularization(xi1=-1.0), DomainError,
                                       "nonnegative"),
    "regularization-zero-c": (lambda _: Regularization(c=0.0), DomainError, "must be positive"),
    "poisson-scale-length": (lambda _: poisson_scale(np.ones(3), 4), InvalidDimensions,
                             "expected 4 responses"),
    "empty-index-set": (_empty_index_set, InvalidDimensions, "nonempty"),
    "unknown-kind": (lambda _: make_objective("probit", Dataset(np.eye(2), np.zeros(2))),
                     DomainError, "unknown model kind"),
    "svd-gap-spec-no-rows": (lambda _: SvdGapSpec(m=0, N=3, p=1), InvalidDimensions,
                             "m and N must be positive"),
    "label-spec-kind": (lambda _: LabelSpec("probit"), DomainError, "label kind"),
    "label-spec-negative-noise": (lambda _: LabelSpec("gaussian", sigma_noise=-1.0), DomainError,
                                  "sigma_noise"),
    "csv-empty": (lambda tmp: _csv(tmp, ""), ParseError, "empty file"),
    "csv-header-only": (lambda tmp: _csv(tmp, "a,b,label\n"), ParseError, "header only"),
    "spd-factor-not-square": (lambda _: spd_factor(np.zeros((2, 3))), InvalidDimensions,
                              "square"),
    "nystrom-shape": (lambda _: nystrom_approximation(np.eye(4), full_operator(3)),
                      InvalidDimensions, "does not match operator dim 3"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_input_check_raises_its_type(case, tmp_path):
    call, error, fragment = CHECKS[case]
    with pytest.raises(error, match=fragment):
        call(tmp_path)
