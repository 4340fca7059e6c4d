//! Well-known vocabularies: RDF, RDFS, XSD, and the OpenBI (`obi:`)
//! vocabulary used when publishing analysis results back as LOD.

use crate::term::Iri;

macro_rules! vocab {
    ($(#[$meta:meta])* $modname:ident, $ns:expr, { $($(#[$imeta:meta])* $name:ident => $local:expr),+ $(,)? }) => {
        $(#[$meta])*
        pub mod $modname {
            use super::Iri;

            /// Namespace IRI prefix of this vocabulary.
            pub const NS: &str = $ns;

            $(
                $(#[$imeta])*
                pub fn $name() -> Iri {
                    Iri::new(concat!($ns, $local)).expect("static vocabulary IRI is valid")
                }
            )+
        }
    };
}

vocab!(
    /// The RDF core vocabulary.
    rdf,
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    {
        /// `rdf:type`.
        type_ => "type",
        /// `rdf:value`.
        value => "value",
        /// `rdf:Property`.
        property => "Property",
    }
);

vocab!(
    /// The RDF Schema vocabulary.
    rdfs,
    "http://www.w3.org/2000/01/rdf-schema#",
    {
        /// `rdfs:label`.
        label => "label",
        /// `rdfs:comment`.
        comment => "comment",
        /// `rdfs:Class`.
        class => "Class",
        /// `rdfs:subClassOf`.
        sub_class_of => "subClassOf",
        /// `rdfs:seeAlso`.
        see_also => "seeAlso",
    }
);

vocab!(
    /// XML Schema datatypes.
    xsd,
    "http://www.w3.org/2001/XMLSchema#",
    {
        /// `xsd:integer`.
        integer => "integer",
        /// `xsd:decimal`.
        decimal => "decimal",
        /// `xsd:double`.
        double => "double",
        /// `xsd:boolean`.
        boolean => "boolean",
        /// `xsd:string`.
        string => "string",
        /// `xsd:date`.
        date => "date",
    }
);

vocab!(
    /// OWL terms used for entity linking.
    owl,
    "http://www.w3.org/2002/07/owl#",
    {
        /// `owl:sameAs`.
        same_as => "sameAs",
    }
);

vocab!(
    /// The OpenBI vocabulary: dataset/quality/mining terms this system
    /// uses to publish acquired information back as Linked Open Data
    /// ("share the new acquired information as LOD to be reused by
    /// anyone", paper §1).
    obi,
    "http://openbi.org/ns#",
    {
        /// Class of published datasets.
        dataset => "Dataset",
        /// Class of dataset columns.
        column => "Column",
        /// Class of data-quality measurements.
        quality_measurement => "QualityMeasurement",
        /// Class of mining-advice resources.
        advice => "Advice",
        /// Class of discovered association rules.
        association_rule => "AssociationRule",
        /// Links a dataset to one of its columns.
        has_column => "hasColumn",
        /// Links an element to a quality measurement.
        has_quality => "hasQuality",
        /// The criterion a measurement quantifies.
        criterion => "criterion",
        /// The measured value.
        measured_value => "measuredValue",
        /// The recommended algorithm of an advice resource.
        recommended_algorithm => "recommendedAlgorithm",
        /// The expected score of the recommendation.
        expected_score => "expectedScore",
        /// The antecedent of a published rule.
        antecedent => "antecedent",
        /// The consequent of a published rule.
        consequent => "consequent",
        /// Rule confidence.
        confidence => "confidence",
        /// Rule support.
        support => "support",
        /// Rule lift.
        lift => "lift",
        /// Number of rows of a published dataset.
        row_count => "rowCount",
        /// Data type of a published column.
        data_type => "dataType",
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_compose() {
        assert_eq!(
            rdf::type_().as_str(),
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        );
        assert_eq!(xsd::integer().local_name(), "integer");
        assert_eq!(
            obi::has_quality().as_str(),
            "http://openbi.org/ns#hasQuality"
        );
        assert!(owl::same_as().as_str().ends_with("sameAs"));
        assert!(rdfs::label().as_str().starts_with(rdfs::NS));
    }
}
