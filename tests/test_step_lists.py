"""The canonical congruence step lists, pinned as literal documents.

check() compares a certificate's steps with the list residue_steps() or
parity_steps() builds, and the provers build from the same functions, so a
wrong builder would move both sides at once.  These texts pin the lists, and
byte for byte they also pin serialize() on nested steps.
"""

import pytest

from anthyphairesis import (
    QuarterDescent,
    check,
    descent_chain,
    parity_proof,
    parse,
    residue_class_label,
    residue_prover,
    serialize,
    verify_step,
)

RESIDUE_DESCENT = {
    3: '''\
{
  "kind": "residue_descent",
  "version": 1,
  "C": "3",
  "class_label": "4n+3",
  "descent_chain": [
    "3"
  ],
  "steps": [
    {
      "assert": "squares_mod",
      "modulus": "4",
      "allowed": [
        "0",
        "1"
      ]
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "4",
      "coeff": "3"
    }
  ]
}
''',
    6: '''\
{
  "kind": "residue_descent",
  "version": 1,
  "C": "6",
  "class_label": "4n+2",
  "descent_chain": [
    "6"
  ],
  "steps": [
    {
      "assert": "squares_mod",
      "modulus": "8",
      "allowed": [
        "0",
        "1",
        "4"
      ]
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "8",
      "coeff": "6"
    }
  ]
}
''',
    12: '''\
{
  "kind": "residue_descent",
  "version": 1,
  "C": "12",
  "class_label": "4n",
  "descent_chain": [
    "12",
    "3"
  ],
  "steps": [
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "0",
      "side": "lhs"
    },
    {
      "assert": "quarter_descent",
      "source": "12",
      "target": "3"
    },
    {
      "assert": "squares_mod",
      "modulus": "4",
      "allowed": [
        "0",
        "1"
      ]
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "4",
      "coeff": "3"
    }
  ]
}
''',
    14: '''\
{
  "kind": "residue_descent",
  "version": 1,
  "C": "14",
  "class_label": "4n+2",
  "descent_chain": [
    "14"
  ],
  "steps": [
    {
      "assert": "squares_mod",
      "modulus": "8",
      "allowed": [
        "0",
        "1",
        "4"
      ]
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "8",
      "coeff": "6"
    }
  ]
}
''',
    20: '''\
{
  "kind": "residue_descent",
  "version": 1,
  "C": "20",
  "class_label": "4n",
  "descent_chain": [
    "20",
    "5"
  ],
  "steps": [
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "0",
      "side": "lhs"
    },
    {
      "assert": "quarter_descent",
      "source": "20",
      "target": "5"
    },
    {
      "assert": "squares_mod",
      "modulus": "8",
      "allowed": [
        "0",
        "1",
        "4"
      ]
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "8",
      "coeff": "5"
    }
  ]
}
''',
}

PARITY = {
    2: '''\
{
  "kind": "parity",
  "version": 1,
  "C": "2",
  "reduction_factor": "1",
  "steps": [
    {
      "assert": "squares_mod",
      "modulus": "4",
      "allowed": [
        "0",
        "1"
      ]
    },
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "2",
      "side": "lhs"
    },
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "2",
      "side": "rhs"
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "4",
      "coeff": "2"
    }
  ]
}
''',
    8: '''\
{
  "kind": "parity",
  "version": 1,
  "C": "8",
  "reduction_factor": "2",
  "steps": [
    {
      "assert": "squares_mod",
      "modulus": "4",
      "allowed": [
        "0",
        "1"
      ]
    },
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "2",
      "side": "lhs"
    },
    {
      "assert": "forces_even",
      "modulus": "4",
      "coeff": "2",
      "side": "rhs"
    },
    {
      "assert": "no_coprime_solution",
      "modulus": "4",
      "coeff": "2"
    }
  ]
}
''',
}


@pytest.mark.parametrize("C", RESIDUE_DESCENT)
def test_residue_descent_documents(C):
    cert = residue_prover(C).certificate
    assert serialize(cert) == RESIDUE_DESCENT[C]
    assert parse(RESIDUE_DESCENT[C]) == cert
    assert check(cert)


@pytest.mark.parametrize("C", PARITY)
def test_parity_documents(C):
    cert = parity_proof(C).certificate
    assert serialize(cert) == PARITY[C]
    assert parse(PARITY[C]) == cert
    assert check(cert)


def test_step_list_boundaries():
    assert verify_step(QuarterDescent(4, 1)) is True
    assert descent_chain(1) == (1,)
    assert residue_class_label(1) == "8k+1"
