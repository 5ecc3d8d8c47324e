//! Interned-style newtype wrappers for the identifier kinds of the calculus.
//!
//! The paper distinguishes class names `C`, field names `f`, method names `m` and variable
//! names `x`. Using distinct newtypes (rather than bare `String`s) keeps the rest of the
//! workspace honest about which kind of identifier is flowing where — a correlation
//! function that accidentally compares a method name against a field name simply does not
//! compile.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a new name from anything string-like.
            pub fn new(s: impl AsRef<str>) -> Self {
                Self(Arc::from(s.as_ref()))
            }

            /// Returns the underlying string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({:?})", stringify!($name), &*self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                Self::new(s)
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                Self::new(s)
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }

        impl PartialEq<str> for $name {
            fn eq(&self, other: &str) -> bool {
                &*self.0 == other
            }
        }

        impl PartialEq<&str> for $name {
            fn eq(&self, other: &&str) -> bool {
                &*self.0 == *other
            }
        }
    };
}

name_type! {
    /// The name of a class (`C` in the paper's grammar).
    ClassName
}
name_type! {
    /// The name of a field (`f`).
    FieldName
}
name_type! {
    /// The name of a method (`m`).
    MethodName
}
name_type! {
    /// The name of a local variable or method parameter (`x`).
    VarName
}

impl ClassName {
    /// The distinguished root class, `Object`, which has no fields and no methods.
    pub fn object() -> Self {
        ClassName::new("Object")
    }

    /// Returns `true` if this is the root class `Object`.
    pub fn is_object(&self) -> bool {
        self.as_str() == "Object"
    }
}

impl MethodName {
    /// The reserved name used in trace entries for code executing outside any user method
    /// (i.e. directly inside a thread body). The paper's semantics always has an enclosing
    /// stack frame; we model the synthetic outermost frame with this name.
    pub fn toplevel() -> Self {
        MethodName::new("<main>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(ClassName::new("Foo"), ClassName::from("Foo"));
        assert_ne!(ClassName::new("Foo"), ClassName::new("Bar"));
        assert_eq!(MethodName::new("run"), "run");
    }

    #[test]
    fn names_are_hashable_and_set_friendly() {
        let mut set = HashSet::new();
        set.insert(FieldName::new("a"));
        set.insert(FieldName::new("a"));
        set.insert(FieldName::new("b"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn object_is_recognized() {
        assert!(ClassName::object().is_object());
        assert!(!ClassName::new("Objective").is_object());
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let n = VarName::new("x");
        assert_eq!(n.to_string(), "x");
        assert!(format!("{n:?}").contains("VarName"));
    }

    #[test]
    fn borrow_str_allows_map_lookup() {
        use std::collections::HashMap;
        let mut m: HashMap<MethodName, u32> = HashMap::new();
        m.insert(MethodName::new("setRequestType"), 1);
        assert_eq!(m.get("setRequestType"), Some(&1));
    }
}
