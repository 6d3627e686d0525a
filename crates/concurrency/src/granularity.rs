//! Lock granularity: mapping text positions to lockable units.
//!
//! The paper asks (§4.2.1): *"it is not clear in joint authoring
//! applications whether locks should be applied at the granularity of
//! sections, paragraphs, sentences or even words"*. This module makes the
//! question operational: a [`Granularity`] plus a document text determine
//! a partition into units, and an edit position maps to the unit that must
//! be locked. Experiment E4 sweeps the five levels.

use std::fmt;

/// The five locking granularities named by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Granularity {
    /// One lock for the whole document.
    Document,
    /// Sections separated by blank lines (`\n\n`).
    Section,
    /// Paragraphs separated by single newlines.
    Paragraph,
    /// Sentences separated by `.`, `!` or `?` followed by whitespace/end.
    Sentence,
    /// Whitespace-separated words.
    Word,
}

impl Granularity {
    /// All levels, coarsest first.
    pub const ALL: [Granularity; 5] = [
        Granularity::Document,
        Granularity::Section,
        Granularity::Paragraph,
        Granularity::Sentence,
        Granularity::Word,
    ];
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Granularity::Document => "document",
            Granularity::Section => "section",
            Granularity::Paragraph => "paragraph",
            Granularity::Sentence => "sentence",
            Granularity::Word => "word",
        };
        f.write_str(name)
    }
}

/// Identifies one lockable unit within a document at some granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub u32);

/// Returns the half-open char ranges `[start, end)` of the units of
/// `text` at granularity `g`. Ranges cover the whole text (separators are
/// attached to the preceding unit) so every position maps to exactly one
/// unit; an empty text yields one empty unit.
pub fn unit_ranges(text: &str, g: Granularity) -> Vec<(usize, usize)> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    if g == Granularity::Document || n == 0 {
        return vec![(0, n)];
    }
    // Identify the positions where a new unit starts.
    let mut starts = vec![0usize];
    let mut i = 0;
    while i < n {
        let boundary_len = match g {
            Granularity::Section => {
                if chars[i] == '\n' && i + 1 < n && chars[i + 1] == '\n' {
                    2
                } else {
                    0
                }
            }
            Granularity::Paragraph => {
                if chars[i] == '\n' {
                    1
                } else {
                    0
                }
            }
            Granularity::Sentence => {
                if matches!(chars[i], '.' | '!' | '?')
                    && (i + 1 >= n || chars[i + 1].is_whitespace())
                {
                    1
                } else {
                    0
                }
            }
            Granularity::Word => {
                if chars[i].is_whitespace() {
                    1
                } else {
                    0
                }
            }
            Granularity::Document => unreachable!(),
        };
        if boundary_len > 0 {
            // Consume any run of further whitespace as part of the boundary
            // (keeps word/sentence units non-empty under double spaces).
            let mut j = i + boundary_len;
            while j < n && chars[j].is_whitespace() && g != Granularity::Paragraph {
                j += 1;
            }
            if j < n {
                starts.push(j);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    let mut ranges = Vec::with_capacity(starts.len());
    for (k, &s) in starts.iter().enumerate() {
        let e = starts.get(k + 1).copied().unwrap_or(n);
        ranges.push((s, e));
    }
    ranges
}

/// Number of units of `text` at granularity `g`.
pub fn unit_count(text: &str, g: Granularity) -> usize {
    unit_ranges(text, g).len()
}

/// Maps char position `pos` to its unit. Positions at or past the end map
/// to the last unit.
pub fn unit_at(text: &str, pos: usize, g: Granularity) -> UnitId {
    let ranges = unit_ranges(text, g);
    for (idx, &(s, e)) in ranges.iter().enumerate() {
        if pos >= s && pos < e {
            return UnitId(idx as u32);
        }
    }
    UnitId((ranges.len() - 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str =
        "One two three. Four five!\nSecond paragraph here.\n\nNew section starts. More text?";

    #[test]
    fn document_is_one_unit() {
        assert_eq!(unit_count(DOC, Granularity::Document), 1);
        assert_eq!(unit_at(DOC, 0, Granularity::Document), UnitId(0));
        assert_eq!(unit_at(DOC, 999, Granularity::Document), UnitId(0));
    }

    #[test]
    fn sections_split_on_blank_lines() {
        assert_eq!(unit_count(DOC, Granularity::Section), 2);
        let last = DOC.chars().count() - 1;
        assert_eq!(unit_at(DOC, 0, Granularity::Section), UnitId(0));
        assert_eq!(unit_at(DOC, last, Granularity::Section), UnitId(1));
    }

    #[test]
    fn paragraphs_split_on_newlines() {
        // Three newline boundaries -> paragraphs: line1, line2, (empty run
        // merges), section line.
        let count = unit_count(DOC, Granularity::Paragraph);
        assert_eq!(count, 4, "{:?}", unit_ranges(DOC, Granularity::Paragraph));
    }

    #[test]
    fn sentences_split_on_terminators() {
        let text = "A b. C d! E f? G";
        assert_eq!(unit_count(text, Granularity::Sentence), 4);
        assert_eq!(unit_at(text, 0, Granularity::Sentence), UnitId(0));
        assert_eq!(unit_at(text, 6, Granularity::Sentence), UnitId(1));
    }

    #[test]
    fn abbreviation_dots_inside_words_do_not_split() {
        let text = "See e.g.the item. Next.";
        // "e.g.the" contains dots not followed by whitespace.
        assert_eq!(unit_count(text, Granularity::Sentence), 2);
    }

    #[test]
    fn words_split_on_whitespace_runs() {
        let text = "alpha  beta\tgamma";
        assert_eq!(unit_count(text, Granularity::Word), 3);
        assert_eq!(unit_at(text, 0, Granularity::Word), UnitId(0));
        assert_eq!(unit_at(text, 7, Granularity::Word), UnitId(1));
        assert_eq!(unit_at(text, 12, Granularity::Word), UnitId(2));
    }

    #[test]
    fn finer_granularity_never_has_fewer_units() {
        for pair in Granularity::ALL.windows(2) {
            assert!(
                unit_count(DOC, pair[0]) <= unit_count(DOC, pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn empty_text_is_one_empty_unit() {
        for g in Granularity::ALL {
            assert_eq!(unit_count("", g), 1);
            assert_eq!(unit_at("", 0, g), UnitId(0));
        }
    }

    #[test]
    fn ranges_tile_the_text() {
        for g in Granularity::ALL {
            let ranges = unit_ranges(DOC, g);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, DOC.chars().count());
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "gap or overlap at {g}: {w:?}");
            }
        }
    }
}
