//! Strongly-typed node identifiers and attribute types.
//!
//! Social and attribute nodes live in different id spaces; mixing them up is
//! a classic source of silent bugs in heterogeneous-network code, so both
//! are newtypes. Ids are dense `u32` indices assigned in insertion order —
//! insertion order is also *arrival order*, which the preferential-
//! attachment analysis (Theorem 2) relies on.

use std::fmt;

/// Identifier of a social node (a user).
///
/// `repr(transparent)` guarantees the id has exactly the size, alignment
/// and bit pattern of its `u32` payload — the zero-copy snapshot views
/// ([`CsrSanView`](crate::view::CsrSanView)) rely on this to reinterpret
/// on-disk little-endian `u32` columns as `&[SocialId]` in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct SocialId(pub u32);

/// Identifier of an attribute node (a binary attribute such as
/// `Employer=Google`).
///
/// `repr(transparent)` for the same reason as [`SocialId`]: the zero-copy
/// views reinterpret raw `u32` columns as typed id slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct AttrId(pub u32);

impl SocialId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl AttrId {
    /// The id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SocialId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The attribute categories the paper extracts from Google+ profiles (§2.2),
/// plus a catch-all for extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrType {
    /// Name of a school attended.
    School,
    /// Declared major / field of study.
    Major,
    /// Name of an employer.
    Employer,
    /// Current city.
    City,
    /// Any other attribute category (dynamic attributes, interest groups…).
    Other,
}

impl AttrType {
    /// The four profile-derived types the paper measures.
    pub const PAPER_TYPES: [AttrType; 4] = [
        AttrType::School,
        AttrType::Major,
        AttrType::Employer,
        AttrType::City,
    ];

    /// Stable lowercase name (the `Display` form).
    pub fn as_str(self) -> &'static str {
        match self {
            AttrType::School => "school",
            AttrType::Major => "major",
            AttrType::Employer => "employer",
            AttrType::City => "city",
            AttrType::Other => "other",
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(SocialId(1) < SocialId(2));
        assert!(AttrId(0) < AttrId(10));
        assert_eq!(SocialId(7).index(), 7);
        assert_eq!(AttrId(3).index(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SocialId(5).to_string(), "u5");
        assert_eq!(AttrId(2).to_string(), "a2");
        assert_eq!(AttrType::Employer.to_string(), "employer");
    }

    #[test]
    fn attr_type_names() {
        for (ty, name) in [
            (AttrType::School, "school"),
            (AttrType::Major, "major"),
            (AttrType::Employer, "employer"),
            (AttrType::City, "city"),
            (AttrType::Other, "other"),
        ] {
            assert_eq!(ty.as_str(), name);
        }
    }

    #[test]
    fn paper_types_excludes_other() {
        assert_eq!(AttrType::PAPER_TYPES.len(), 4);
        assert!(!AttrType::PAPER_TYPES.contains(&AttrType::Other));
    }
}
