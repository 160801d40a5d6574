"""Frozen copy of the original row-major ``Dataset`` validation.

Test-only, and a deliberate duplicate, like ``reference_id3``: a
``Dataset`` now checks and encodes whole columns at once and scans rows
only to report an error, and it must raise exactly the error this scan
raises, message, row, column and value alike. It checks one record at a
time: the record's attributes, then its cells in schema order, then its
label. Do not "simplify" it towards the production code; its
independence is the check.
"""

from __future__ import annotations

from gradetree.dataset import AttributeSchema, ValidationError


def check(schema: AttributeSchema, records) -> None:
    """Raise the ValidationError of the first invalid record, or return None."""
    names = set(schema.attribute_names)
    domains = {a.name: set(a.domain) for a in schema.attributes}
    class_domain = set(schema.class_domain)
    for i, rec in enumerate(records, start=1):
        keys = rec.values.keys()
        if keys != names:
            raise ValidationError(
                f"row {i}: record attributes do not match schema "
                f"(missing={sorted(names - keys)}, unexpected={sorted(keys - names)})",
                row=i,
            )
        for name, domain in domains.items():
            value = rec.values[name]
            if value not in domain:
                raise ValidationError(
                    f"row {i}, column {name!r}: value {value!r} not in domain {sorted(domain)}",
                    row=i,
                    column=name,
                    value=value,
                )
        if rec.label not in class_domain:
            raise ValidationError(
                f"row {i}, column {schema.class_name!r}: label {rec.label!r} "
                f"not in class domain {sorted(class_domain)}",
                row=i,
                column=schema.class_name,
                value=rec.label,
            )


def encode(schema: AttributeSchema, records) -> tuple[list[list[int]], list[int]]:
    """Every attribute's column, in schema order, and the labels, as domain indices."""
    columns = [
        [list(a.domain).index(rec.values[a.name]) for rec in records] for a in schema.attributes
    ]
    return columns, [list(schema.class_domain).index(rec.label) for rec in records]
