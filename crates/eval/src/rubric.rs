//! The human-evaluation scoresheet (paper Table I; `gced run table1`
//! prints it).

/// The three rated criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    Informativeness,
    Conciseness,
    Readability,
}

impl Criterion {
    /// All criteria in table order.
    pub fn all() -> [Criterion; 3] {
        [
            Criterion::Informativeness,
            Criterion::Conciseness,
            Criterion::Readability,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Informativeness => "Informativeness",
            Criterion::Conciseness => "Conciseness",
            Criterion::Readability => "Readability",
        }
    }

    /// The Table I level descriptions, index 0 = score 5 down to score 1.
    pub fn levels(self) -> [&'static str; 5] {
        match self {
            Criterion::Informativeness => [
                "Extremely related to the QA pair; the input answer can be completely inferred.",
                "Generally related; the input answer can be partly inferred.",
                "Generally related, but the input answer can't be inferred.",
                "Only some details identical; the answer can't be inferred.",
                "The evidence is irrelevant to the QA pair.",
            ],
            Criterion::Conciseness => [
                "Extremely concise.",
                "Generally concise (1-1.5x longer than the expected evidence).",
                "Some redundant information (1.5-2x longer).",
                "Too much redundant information (2-3x longer).",
                "The evidence is the whole document (>3x longer).",
            ],
            Criterion::Readability => [
                "Extremely fluent and logical.",
                "Understandable with a few grammar mistakes (1-2).",
                "Understandable to some extent, many grammar mistakes (>2).",
                "Cannot be understood, but some segments are fluent.",
                "Not readable.",
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_criteria_five_levels() {
        assert_eq!(Criterion::all().len(), 3);
        for c in Criterion::all() {
            assert_eq!(c.levels().len(), 5);
        }
    }
}
