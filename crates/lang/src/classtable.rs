//! The class table and the `fields` / `mbody` auxiliary functions of the paper (Fig. 5).
//!
//! A [`ClassTable`] is built once from a [`Program`] and answers the lookups the dynamic
//! semantics needs:
//!
//! * `fields(C)` — all fields of `C` including inherited ones, superclass fields first
//!   (constructor argument order),
//! * `mbody(m, C)` — the parameters and body of `m` resolved along the inheritance chain
//!   (dynamic dispatch),
//! * subtype queries used by validation.

use std::collections::HashMap;

use crate::ast::{ClassDef, MethodDef, Program, Type};
use crate::error::Error;
use crate::names::{ClassName, FieldName, MethodName};

/// An immutable, validated index over the classes of a program.
#[derive(Clone, Debug)]
pub struct ClassTable {
    classes: HashMap<ClassName, ClassDef>,
    /// Cached `fields(C)` results (inherited-first order).
    all_fields: HashMap<ClassName, Vec<(FieldName, Type)>>,
}

impl ClassTable {
    /// Builds a class table from a program, verifying that the class hierarchy is
    /// well-formed.
    ///
    /// # Errors
    ///
    /// Returns an error when a class is duplicated, a superclass is unknown, the
    /// inheritance relation is cyclic, or a field is duplicated along a chain.
    pub fn new(program: &Program) -> Result<Self, Error> {
        let mut classes = HashMap::new();
        for class in &program.classes {
            if classes.insert(class.name.clone(), class.clone()).is_some() {
                return Err(Error::DuplicateClass(class.name.as_str().to_owned()));
            }
        }

        // Superclasses must exist (Object is implicit) and the hierarchy must be acyclic.
        for class in classes.values() {
            if !class.superclass.is_object() && !classes.contains_key(&class.superclass) {
                return Err(Error::UnknownClass(class.superclass.as_str().to_owned()));
            }
        }
        for class in classes.values() {
            let mut seen = vec![class.name.clone()];
            let mut current = class.superclass.clone();
            while !current.is_object() {
                if seen.contains(&current) {
                    return Err(Error::CyclicInheritance(class.name.as_str().to_owned()));
                }
                seen.push(current.clone());
                current = classes
                    .get(&current)
                    .map(|c| c.superclass.clone())
                    .unwrap_or_else(ClassName::object);
            }
        }

        // Duplicate method names within a class are rejected.
        for class in classes.values() {
            for (i, m) in class.methods.iter().enumerate() {
                if class.methods[..i].iter().any(|m2| m2.name == m.name) {
                    return Err(Error::DuplicateMethod {
                        class: class.name.as_str().to_owned(),
                        method: m.name.as_str().to_owned(),
                    });
                }
            }
        }

        let mut table = ClassTable {
            classes,
            all_fields: HashMap::new(),
        };

        // Pre-compute fields(C) and detect duplicate fields along chains.
        let names: Vec<ClassName> = table.classes.keys().cloned().collect();
        for name in names {
            let fields = table.compute_fields(&name)?;
            table.all_fields.insert(name, fields);
        }
        Ok(table)
    }

    fn compute_fields(&self, class: &ClassName) -> Result<Vec<(FieldName, Type)>, Error> {
        let mut chain = Vec::new();
        let mut current = class.clone();
        while !current.is_object() {
            let def = self
                .classes
                .get(&current)
                .ok_or_else(|| Error::UnknownClass(current.as_str().to_owned()))?;
            chain.push(def);
            current = def.superclass.clone();
        }
        chain.reverse(); // superclass fields first
        let mut fields: Vec<(FieldName, Type)> = Vec::new();
        for def in chain {
            for (f, t) in &def.fields {
                if fields.iter().any(|(existing, _)| existing == f) {
                    return Err(Error::DuplicateField {
                        class: class.as_str().to_owned(),
                        field: f.as_str().to_owned(),
                    });
                }
                fields.push((f.clone(), t.clone()));
            }
        }
        Ok(fields)
    }

    /// Returns the class definition for `name`, if any (the implicit `Object` class has no
    /// definition).
    pub fn class(&self, name: &ClassName) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Returns `true` when the class is defined (or is `Object`).
    pub fn is_defined(&self, name: &ClassName) -> bool {
        name.is_object() || self.classes.contains_key(name)
    }

    /// The paper's `fields(C)`: all fields of `C`, superclass fields first. `Object` has
    /// no fields.
    ///
    /// # Panics
    ///
    /// Never panics; unknown classes yield an empty slice (validation rejects them
    /// earlier).
    pub fn fields(&self, class: &ClassName) -> &[(FieldName, Type)] {
        self.all_fields.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The paper's `mbody(m, C)`: resolves method `m` starting at class `C` and walking up
    /// the inheritance chain. Returns the defining class together with the method
    /// definition, or `None` when no class in the chain defines the method.
    pub fn mbody(
        &self,
        method: &MethodName,
        class: &ClassName,
    ) -> Option<(&ClassName, &MethodDef)> {
        let mut current = class.clone();
        while !current.is_object() {
            let def = self.classes.get(&current)?;
            if let Some(m) = def.methods.iter().find(|m| m.name == *method) {
                return Some((&def.name, m));
            }
            current = def.superclass.clone();
        }
        None
    }

    /// Returns `true` if `sub` is `sup` or a (transitive) subclass of `sup`.
    pub fn is_subclass(&self, sub: &ClassName, sup: &ClassName) -> bool {
        if sup.is_object() {
            return true;
        }
        let mut current = sub.clone();
        loop {
            if &current == sup {
                return true;
            }
            if current.is_object() {
                return false;
            }
            current = match self.classes.get(&current) {
                Some(def) => def.superclass.clone(),
                None => return false,
            };
        }
    }

    /// Iterates over all defined classes in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    /// Number of user-defined classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` when there are no user-defined classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{PrimType, Term};
    use crate::names::VarName;

    fn class(name: &str, superclass: &str, fields: &[(&str, Type)]) -> ClassDef {
        ClassDef {
            name: ClassName::new(name),
            superclass: ClassName::new(superclass),
            fields: fields
                .iter()
                .map(|(f, t)| (FieldName::new(*f), t.clone()))
                .collect(),
            methods: vec![],
        }
    }

    fn program(classes: Vec<ClassDef>) -> Program {
        Program {
            classes,
            main: vec![],
        }
    }

    #[test]
    fn fields_are_inherited_superclass_first() {
        let p = program(vec![
            class("A", "Object", &[("x", Type::Prim(PrimType::Int))]),
            class("B", "A", &[("y", Type::Prim(PrimType::Bool))]),
        ]);
        let ct = ClassTable::new(&p).unwrap();
        let fields = ct.fields(&ClassName::new("B"));
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, FieldName::new("x"));
        assert_eq!(fields[1].0, FieldName::new("y"));
        assert!(ct.fields(&ClassName::object()).is_empty());
    }

    #[test]
    fn duplicate_class_rejected() {
        let p = program(vec![class("A", "Object", &[]), class("A", "Object", &[])]);
        assert!(matches!(ClassTable::new(&p), Err(Error::DuplicateClass(_))));
    }

    #[test]
    fn unknown_superclass_rejected() {
        let p = program(vec![class("A", "Ghost", &[])]);
        assert!(matches!(ClassTable::new(&p), Err(Error::UnknownClass(_))));
    }

    #[test]
    fn cyclic_inheritance_rejected() {
        let p = program(vec![class("A", "B", &[]), class("B", "A", &[])]);
        assert!(matches!(
            ClassTable::new(&p),
            Err(Error::CyclicInheritance(_))
        ));
    }

    #[test]
    fn duplicate_field_along_chain_rejected() {
        let p = program(vec![
            class("A", "Object", &[("x", Type::Prim(PrimType::Int))]),
            class("B", "A", &[("x", Type::Prim(PrimType::Int))]),
        ]);
        assert!(matches!(
            ClassTable::new(&p),
            Err(Error::DuplicateField { .. })
        ));
    }

    #[test]
    fn mbody_resolves_through_inheritance() {
        let mut base = class("Base", "Object", &[]);
        base.methods.push(MethodDef {
            name: MethodName::new("run"),
            params: vec![(VarName::new("n"), Type::Prim(PrimType::Int))],
            return_type: Type::Prim(PrimType::Int),
            body: vec![Term::Var(VarName::new("n"))],
        });
        let derived = class("Derived", "Base", &[]);
        let p = program(vec![base, derived]);
        let ct = ClassTable::new(&p).unwrap();

        let (owner, m) = ct
            .mbody(&MethodName::new("run"), &ClassName::new("Derived"))
            .expect("method should resolve via superclass");
        assert_eq!(owner, &ClassName::new("Base"));
        assert_eq!(m.name, MethodName::new("run"));
        assert!(ct
            .mbody(&MethodName::new("missing"), &ClassName::new("Derived"))
            .is_none());
    }

    #[test]
    fn method_override_shadows_superclass() {
        let mk = |body_val: i64| MethodDef {
            name: MethodName::new("id"),
            params: vec![],
            return_type: Type::Prim(PrimType::Int),
            body: vec![Term::Lit(crate::ast::Lit::Int(body_val))],
        };
        let mut base = class("Base", "Object", &[]);
        base.methods.push(mk(1));
        let mut derived = class("Derived", "Base", &[]);
        derived.methods.push(mk(2));
        let ct = ClassTable::new(&program(vec![base, derived])).unwrap();
        let (owner, _) = ct
            .mbody(&MethodName::new("id"), &ClassName::new("Derived"))
            .unwrap();
        assert_eq!(owner, &ClassName::new("Derived"));
    }

    #[test]
    fn subclass_relation() {
        let p = program(vec![
            class("A", "Object", &[]),
            class("B", "A", &[]),
            class("C", "B", &[]),
        ]);
        let ct = ClassTable::new(&p).unwrap();
        assert!(ct.is_subclass(&ClassName::new("C"), &ClassName::new("A")));
        assert!(ct.is_subclass(&ClassName::new("C"), &ClassName::object()));
        assert!(!ct.is_subclass(&ClassName::new("A"), &ClassName::new("C")));
    }

    #[test]
    fn duplicate_methods_rejected() {
        let mut a = class("A", "Object", &[]);
        let m = MethodDef {
            name: MethodName::new("go"),
            params: vec![],
            return_type: Type::Prim(PrimType::Unit),
            body: vec![Term::unit()],
        };
        a.methods.push(m.clone());
        a.methods.push(m);
        assert!(matches!(
            ClassTable::new(&program(vec![a])),
            Err(Error::DuplicateMethod { .. })
        ));
    }
}
